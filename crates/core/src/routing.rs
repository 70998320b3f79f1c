//! MPIL next-hop selection (Figure 5 of the paper).

use mpil_id::{common_digits, DigitBits, Id, IdSpace};
use mpil_overlay::NodeIdx;

use crate::config::{RoutingMetric, SplitPolicy};

/// The routing decision at one node for one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingDecision {
    /// The node's own metric value for the object.
    pub self_metric: u32,
    /// Whether the node is a *local maximum*: no neighbor (visited or not)
    /// has a strictly higher metric (Section 4.4).
    pub is_local_max: bool,
    /// Best-metric candidates among unvisited neighbors, in neighbor-list
    /// order. Empty when every neighbor has been visited.
    pub candidates: Vec<NodeIdx>,
    /// The metric value shared by `candidates` (0 when empty).
    pub candidate_metric: u32,
}

/// Evaluates the MPIL routing rule at `node` for `object`.
///
/// * `neighbors` — the node's full neighbor list;
/// * `ids` — the global ID table indexed by [`NodeIdx`];
/// * `visited` — the message's `route` field plus the node itself; a
///   predicate so callers can use whatever representation is cheap.
///
/// Two metric scans are specified by Figure 5: the local-maximum test
/// runs against **all** neighbors, while forwarding candidates exclude
/// visited ones.
pub fn routing_decision(
    space: IdSpace,
    object: Id,
    node: NodeIdx,
    neighbors: &[NodeIdx],
    ids: &[Id],
    visited: impl Fn(NodeIdx) -> bool,
) -> RoutingDecision {
    routing_decision_policy(
        space,
        object,
        node,
        neighbors,
        ids,
        visited,
        SplitPolicy::MetricTies,
        u32::MAX,
        RoutingMetric::CommonDigits,
    )
}

/// Evaluates one neighbor's closeness under the configured metric
/// (higher is closer for all three).
#[inline]
pub fn metric_value(metric: RoutingMetric, space: IdSpace, object: Id, id: Id) -> u32 {
    match metric {
        RoutingMetric::CommonDigits => space.common_digits(object, id),
        RoutingMetric::PrefixMatch => space.prefix_match(object, id),
        RoutingMetric::SuffixMatch => space.suffix_match(object, id),
    }
}

/// Like [`routing_decision`], but parameterized by the forwarding
/// fan-out rule.
///
/// For [`SplitPolicy::MetricTies`] the candidates are the neighbors tied
/// at the best metric (`budget` is ignored). For [`SplitPolicy::TopK`]
/// they are the best `budget` unvisited neighbors by metric, in
/// descending metric order with neighbor-list order breaking ties —
/// `budget` should be the message's remaining quota plus `given_flows`,
/// matching what [`crate::flow::plan_forwarding`] may actually use.
///
/// One pass over `neighbors`, O(d + k log k) for degree d and k
/// candidates kept: under `TopK` the best `max(budget, 1)` so far are
/// held in order, a neighbor entering after the last one whose metric
/// is at least its own and pushing the tail out — exactly the first
/// `k` of a stable sort by descending metric. A hub has thousands of
/// neighbors and a message a few dozen flows, so nearly every neighbor
/// is turned away on its metric alone, by one comparison with the
/// least metric that can still enter (a local, raised as the kept set
/// fills); `visited` (a scan of the message's route for most callers)
/// is asked only of a neighbor that would otherwise become a
/// candidate. The metric and the digit width are resolved once per
/// call, so the per-neighbor work is one metric kernel with its width
/// a constant, that comparison and a running maximum.
#[expect(clippy::too_many_arguments, reason = "the inputs of the rule in Figure 5")]
pub fn routing_decision_policy(
    space: IdSpace,
    object: Id,
    node: NodeIdx,
    neighbors: &[NodeIdx],
    ids: &[Id],
    visited: impl Fn(NodeIdx) -> bool,
    policy: SplitPolicy,
    budget: u32,
    metric: RoutingMetric,
) -> RoutingDecision {
    let keep = match policy {
        SplitPolicy::MetricTies => None,
        SplitPolicy::TopK => Some((budget.max(1) as usize).min(neighbors.len())),
    };
    let at = (node, neighbors, ids);
    match (metric, space.digit_bits()) {
        (RoutingMetric::CommonDigits, DigitBits::B1) => {
            decide(|id| common_digits(object, id, 1), at, visited, keep)
        }
        (RoutingMetric::CommonDigits, DigitBits::B2) => {
            decide(|id| common_digits(object, id, 2), at, visited, keep)
        }
        (RoutingMetric::CommonDigits, DigitBits::B4) => {
            decide(|id| common_digits(object, id, 4), at, visited, keep)
        }
        (RoutingMetric::CommonDigits, DigitBits::B8) => {
            decide(|id| common_digits(object, id, 8), at, visited, keep)
        }
        (RoutingMetric::PrefixMatch, _) => {
            decide(|id| space.prefix_match(object, id), at, visited, keep)
        }
        (RoutingMetric::SuffixMatch, _) => {
            decide(|id| space.suffix_match(object, id), at, visited, keep)
        }
    }
}

/// The one scan behind [`routing_decision_policy`] at `node`, for one
/// metric: `keep` is `None` under `MetricTies` and the number of
/// candidates to keep under `TopK`.
#[inline]
fn decide(
    value: impl Fn(Id) -> u32,
    (node, neighbors, ids): (NodeIdx, &[NodeIdx], &[Id]),
    visited: impl Fn(NodeIdx) -> bool,
    keep: Option<usize>,
) -> RoutingDecision {
    let self_metric = value(ids[node.index()]);
    let mut best_any = 0u32;
    let (candidates, candidate_metric) = match keep {
        None => {
            let mut best = 0u32;
            let mut candidates = Vec::new();
            for &nbr in neighbors {
                let m = value(ids[nbr.index()]);
                best_any = best_any.max(m);
                if m < best || nbr == node || visited(nbr) {
                    continue;
                }
                if m > best {
                    candidates.clear();
                    best = m;
                }
                candidates.push(nbr);
            }
            (candidates, best)
        }
        Some(keep) => {
            let mut candidates = Vec::with_capacity(keep);
            // `kept[i]` is the metric of `candidates[i]`, descending.
            let mut kept: Vec<u32> = Vec::with_capacity(keep);
            // The least metric that can still enter: 0 until `keep` are
            // held, then one above the last one's.
            let mut floor = 0u32;
            for &nbr in neighbors {
                let m = value(ids[nbr.index()]);
                best_any = best_any.max(m);
                if m < floor || nbr == node || visited(nbr) {
                    continue;
                }
                if kept.len() == keep {
                    kept.pop();
                    candidates.pop();
                }
                let at = kept.partition_point(|&have| have >= m);
                kept.insert(at, m);
                candidates.insert(at, nbr);
                if kept.len() == keep {
                    floor = kept[keep - 1] + 1;
                }
            }
            (candidates, kept.first().copied().unwrap_or(0))
        }
    };
    RoutingDecision {
        self_metric,
        is_local_max: neighbors.is_empty() || self_metric >= best_any,
        candidates,
        candidate_metric,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    /// Builds the 4-bit toy IDs from the paper's figures, embedded in the
    /// low bits of 160-bit IDs. All high bits are zero, so they are
    /// common to every pair and only shift metrics by a constant.
    fn id4(bits: u64) -> Id {
        Id::from_low_u64(bits)
    }

    #[test]
    fn paper_figure_4_continuous_forwarding() {
        // Node 1001 holds a lookup for 0110 with neighbors
        // {1011, 1111, 1101}: prefix routing sees no progress anywhere,
        // but MPIL picks 1111 (matches "11" in the middle positions).
        let space = IdSpace::base2();
        let ids = vec![id4(0b1001), id4(0b1011), id4(0b1111), id4(0b1101)];
        let node = NodeIdx::new(0);
        let neighbors = [NodeIdx::new(1), NodeIdx::new(2), NodeIdx::new(3)];
        let d = routing_decision(space, id4(0b0110), node, &neighbors, &ids, |_| false);
        assert_eq!(d.candidates, vec![NodeIdx::new(2)], "1111 is the best");
        assert!(!d.is_local_max);
    }

    #[test]
    fn paper_figure_4_redundancy_ties() {
        // Node 1001 forwards ID 0001; neighbors 1101 and 1011 tie (both
        // share 2 digits with 0001 in 4-bit space), 1111 shares 1.
        let space = IdSpace::base2();
        let ids = vec![id4(0b1001), id4(0b1111), id4(0b1101), id4(0b1011)];
        let node = NodeIdx::new(0);
        let neighbors = [NodeIdx::new(1), NodeIdx::new(2), NodeIdx::new(3)];
        let d = routing_decision(space, id4(0b0001), node, &neighbors, &ids, |_| false);
        assert_eq!(d.candidates, vec![NodeIdx::new(2), NodeIdx::new(3)]);
    }

    #[test]
    fn local_maximum_detected_against_all_neighbors() {
        let space = IdSpace::base2();
        // Object equals node 0's ID: metric 160, strictly above any
        // distinct neighbor.
        let ids = vec![id4(0b1001), id4(0b1000), id4(0b0001)];
        let node = NodeIdx::new(0);
        let neighbors = [NodeIdx::new(1), NodeIdx::new(2)];
        let d = routing_decision(space, id4(0b1001), node, &neighbors, &ids, |_| false);
        assert!(d.is_local_max);
        assert_eq!(d.self_metric, 160);
        // Candidates still computed (a flow may continue past a maximum);
        // both neighbors differ from the object by exactly one bit, so
        // they tie at 159.
        assert_eq!(d.candidates, vec![NodeIdx::new(1), NodeIdx::new(2)]);
        assert_eq!(d.candidate_metric, 159);
    }

    #[test]
    fn visited_neighbors_are_not_candidates_but_count_for_maximum() {
        let space = IdSpace::base2();
        let ids = vec![id4(0b1001), id4(0b1011), id4(0b0000)];
        let node = NodeIdx::new(0);
        let neighbors = [NodeIdx::new(1), NodeIdx::new(2)];
        let object = id4(0b1011);
        // Neighbor 1 (=object, metric 160) is visited: it cannot be a
        // candidate, but it still prevents node 0 from being a local max.
        let d = routing_decision(space, object, node, &neighbors, &ids, |n| {
            n == NodeIdx::new(1)
        });
        assert!(!d.is_local_max);
        assert_eq!(d.candidates, vec![NodeIdx::new(2)]);
    }

    #[test]
    fn all_visited_leaves_no_candidates() {
        let space = IdSpace::base2();
        let ids = vec![id4(1), id4(2), id4(3)];
        let node = NodeIdx::new(0);
        let neighbors = [NodeIdx::new(1), NodeIdx::new(2)];
        let d = routing_decision(space, id4(7), node, &neighbors, &ids, |_| true);
        assert!(d.candidates.is_empty());
        assert_eq!(d.candidate_metric, 0);
    }

    #[test]
    fn isolated_node_is_trivially_local_max() {
        let space = IdSpace::base4();
        let ids = vec![id4(5)];
        let d = routing_decision(space, id4(9), NodeIdx::new(0), &[], &ids, |_| false);
        assert!(d.is_local_max);
        assert!(d.candidates.is_empty());
    }

    #[test]
    fn tie_with_self_is_still_local_max() {
        // "none of its neighbor nodes have a higher value" — equal is OK.
        let space = IdSpace::base2();
        // Node and neighbor have IDs at equal metric to the object.
        let ids = vec![id4(0b0011), id4(0b0101)];
        // object 0001: node 0 shares bits {0,1,3}... compute: 0011 vs 0001
        // differ in bit 2 (value 2): metric 159. 0101 vs 0001 differ in
        // bit... 0101^0001=0100: metric 159. Tie.
        let d = routing_decision(
            space,
            id4(0b0001),
            NodeIdx::new(0),
            &[NodeIdx::new(1)],
            &ids,
            |_| false,
        );
        assert_eq!(d.self_metric, 159);
        assert!(d.is_local_max);
    }

    /// The routing rule as Figure 5 states it: score every neighbor, keep
    /// the unvisited ones, and under `TopK` stable-sort them by descending
    /// metric and take the first `budget` (at least one).
    #[expect(clippy::too_many_arguments, reason = "the signature it is the reference for")]
    fn reference_decision(
        space: IdSpace,
        object: Id,
        node: NodeIdx,
        neighbors: &[NodeIdx],
        ids: &[Id],
        visited: impl Fn(NodeIdx) -> bool,
        policy: SplitPolicy,
        budget: u32,
        metric: RoutingMetric,
    ) -> RoutingDecision {
        let value = |n: NodeIdx| metric_value(metric, space, object, ids[n.index()]);
        let self_metric = value(node);
        let best_any = neighbors.iter().map(|&n| value(n)).max();
        let mut scored: Vec<(u32, NodeIdx)> = neighbors
            .iter()
            .filter(|&&n| n != node && !visited(n))
            .map(|&n| (value(n), n))
            .collect();
        let candidate_metric = scored.iter().map(|&(m, _)| m).max().unwrap_or(0);
        match policy {
            SplitPolicy::MetricTies => scored.retain(|&(m, _)| m == candidate_metric),
            SplitPolicy::TopK => {
                scored.sort_by_key(|&(m, _)| std::cmp::Reverse(m));
                scored.truncate((budget as usize).max(1));
            }
        }
        RoutingDecision {
            self_metric,
            is_local_max: best_any.is_none_or(|best| self_metric >= best),
            candidates: scored.into_iter().map(|(_, n)| n).collect(),
            candidate_metric,
        }
    }

    #[test]
    fn selection_equals_the_stable_sort_it_replaces() {
        // IDs from a 6-bit space: at most seven metric values in base 2
        // and four in base 4, so ties are the rule at every degree.
        let mut rng = SmallRng::seed_from_u64(19);
        for case in 0..3000 {
            let n = rng.gen_range(1..=300usize);
            let ids: Vec<Id> = (0..n)
                .map(|_| Id::from_low_u64(rng.gen_range(0..64)))
                .collect();
            let degree = rng.gen_range(0..=300usize);
            // Drawn with repetition, so `node` and duplicates turn up.
            let neighbors: Vec<NodeIdx> = (0..degree)
                .map(|_| NodeIdx::new(rng.gen_range(0..n as u32)))
                .collect();
            let node = match neighbors.first() {
                Some(&first) if rng.gen_bool(0.5) => first,
                _ => NodeIdx::new(rng.gen_range(0..n as u32)),
            };
            let visited_share = [0.0, 0.1, 0.5, 1.0][case % 4];
            let visited: Vec<bool> = (0..n).map(|_| rng.gen_bool(visited_share)).collect();
            let object = Id::from_low_u64(rng.gen_range(0..64));
            let space = [IdSpace::base2(), IdSpace::base4(), IdSpace::base16()][case % 3];
            let budget = rng.gen_range(0..=25u32);
            for policy in [SplitPolicy::MetricTies, SplitPolicy::TopK] {
                for metric in [
                    RoutingMetric::CommonDigits,
                    RoutingMetric::PrefixMatch,
                    RoutingMetric::SuffixMatch,
                ] {
                    let seen = |n: NodeIdx| visited[n.index()];
                    let got = routing_decision_policy(
                        space, object, node, &neighbors, &ids, seen, policy, budget, metric,
                    );
                    let want = reference_decision(
                        space, object, node, &neighbors, &ids, seen, policy, budget, metric,
                    );
                    assert_eq!(
                        got, want,
                        "case {case}: {policy:?} {metric:?} budget {budget} degree {degree}"
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_takes_the_best_few_in_list_order_within_ties() {
        // Metrics against object 0 in base 2: 160, 159, 159, 158, 159.
        let ids: Vec<Id> = [0b111, 0b000, 0b001, 0b010, 0b011, 0b100]
            .into_iter()
            .map(id4)
            .collect();
        let neighbors: Vec<NodeIdx> = (1..6).map(NodeIdx::new).collect();
        let decide = |budget| {
            routing_decision_policy(
                IdSpace::base2(),
                id4(0),
                NodeIdx::new(0),
                &neighbors,
                &ids,
                |_| false,
                SplitPolicy::TopK,
                budget,
                RoutingMetric::CommonDigits,
            )
        };
        let nodes = |v: &[u32]| v.iter().map(|&i| NodeIdx::new(i)).collect::<Vec<_>>();
        assert_eq!(decide(3).candidates, nodes(&[1, 2, 3]));
        assert_eq!(decide(4).candidates, nodes(&[1, 2, 3, 5]));
        assert_eq!(decide(9).candidates, nodes(&[1, 2, 3, 5, 4]));
        assert_eq!(
            decide(0).candidates,
            nodes(&[1]),
            "a budget of 0 still forwards"
        );
        assert_eq!(decide(3).candidate_metric, 160);
    }

    #[test]
    fn a_hub_asks_visited_only_of_neighbors_that_can_enter_the_top_k() {
        let (degree, budget) = (1000u32, 20usize);
        let mut rng = SmallRng::seed_from_u64(7);
        let ids: Vec<Id> = (0..=degree).map(|_| Id::random(&mut rng)).collect();
        let neighbors: Vec<NodeIdx> = (1..=degree).map(NodeIdx::new).collect();
        let object = Id::random(&mut rng);
        let asked = RefCell::new(Vec::new());
        let d = routing_decision_policy(
            IdSpace::base4(),
            object,
            NodeIdx::new(0),
            &neighbors,
            &ids,
            |n| {
                asked.borrow_mut().push(n);
                false
            },
            SplitPolicy::TopK,
            budget as u32,
            RoutingMetric::CommonDigits,
        );
        let asked = asked.into_inner();
        // About k(1 + ln(d/k)) = 98 neighbors ever enter a top-20 of
        // 1000 distinct values; ties only lower that.
        assert!(asked.len() < 250, "visited asked {} times", asked.len());

        // Nobody is visited, so whoever was asked went in: replay the
        // buffer and check each neighbor was asked exactly when it had to be.
        let mut kept: Vec<u32> = Vec::new();
        let mut asked = asked.into_iter().peekable();
        for &nbr in &neighbors {
            let m = IdSpace::base4().common_digits(object, ids[nbr.index()]);
            let can_enter = kept.len() < budget || m > kept[budget - 1];
            assert_eq!(asked.next_if_eq(&nbr).is_some(), can_enter, "{nbr:?}");
            if can_enter {
                kept.insert(kept.partition_point(|&have| have >= m), m);
                kept.truncate(budget);
            }
        }
        assert_eq!(asked.next(), None);
        assert_eq!(d.candidates.len(), budget);
        assert_eq!(d.candidate_metric, kept[0]);
    }
}
