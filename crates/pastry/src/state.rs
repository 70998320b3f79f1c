//! Per-node Pastry state and the routing decision.

use mpil_id::{ring_distance, Id, IdSpace};
use mpil_overlay::NodeIdx;

use crate::leafset::LeafSet;
use crate::routing_table::RoutingTable;

/// The routing decision at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// This node is (or believes itself to be) the key's root.
    Local,
    /// Forward to the given node.
    Forward(NodeIdx),
}

/// The complete Pastry state of one node: ID, leaf set, routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PastryState {
    /// This node's overlay handle.
    pub node: NodeIdx,
    /// This node's 160-bit ID.
    pub id: Id,
    /// The leaf set.
    pub leafset: LeafSet,
    /// The routing table.
    pub rt: RoutingTable,
}

impl PastryState {
    /// Creates empty state for `node` with ID `id`.
    pub fn new(node: NodeIdx, id: Id, space: IdSpace, leaf_set_size: usize) -> Self {
        PastryState {
            node,
            id,
            leafset: LeafSet::new(id, leaf_set_size),
            rt: RoutingTable::new(id, space),
        }
    }

    /// Standard Pastry routing (Rowstron & Druschel §2.3), skipping nodes
    /// for which `exclude` returns true (declared-failed peers):
    ///
    /// 1. if `key` falls inside the leaf set's arc, deliver to the
    ///    numerically closest non-excluded leaf (or locally);
    /// 2. otherwise use the routing-table entry that extends the shared
    ///    prefix by one digit;
    /// 3. otherwise ("rare case") forward to any known node whose prefix
    ///    match is at least as long and which is numerically closer to
    ///    the key; if none exists, deliver locally.
    pub fn next_hop(&self, space: IdSpace, key: Id, exclude: impl Fn(NodeIdx) -> bool) -> NextHop {
        if key == self.id {
            return NextHop::Local;
        }
        // 1. Leaf set range.
        if self.leafset.covers(key) {
            return match self.leafset.closest(key, &exclude) {
                None => NextHop::Local,
                Some((_, n)) => NextHop::Forward(n),
            };
        }
        // 2. Prefix routing.
        let p = space.prefix_match(self.id, key);
        if let Some((_, n)) = self.rt.entry_for_key(key) {
            if !exclude(n) {
                return NextHop::Forward(n);
            }
        }
        // 3. Rare case: any known node at least as prefix-close and
        // numerically closer.
        let own_dist = ring_distance(self.id, key);
        let mut best: Option<(Id, NodeIdx)> = None;
        let mut best_dist = own_dist;
        for (cid, cnode) in self.known_nodes() {
            if exclude(cnode) {
                continue;
            }
            if space.prefix_match(cid, key) < p {
                continue;
            }
            let d = ring_distance(cid, key);
            if d < best_dist {
                best_dist = d;
                best = Some((cid, cnode));
            }
        }
        match best {
            Some((_, n)) => NextHop::Forward(n),
            None => NextHop::Local,
        }
    }

    /// All nodes this state knows about (leaf set ∪ routing table), with
    /// IDs; may yield a node more than once.
    pub(crate) fn known_nodes(&self) -> impl Iterator<Item = (Id, NodeIdx)> + '_ {
        self.leafset
            .left_side()
            .iter()
            .chain(self.leafset.right_side().iter())
            .copied()
            .chain(self.rt.entries())
    }

    /// The deduplicated, sorted neighbor list (leaf set ∪ routing table).
    /// This is the overlay MPIL routes on in the paper's Section 6.2
    /// ("we use the structured overlay of MSPastry, but none of the
    /// overlay maintenance techniques").
    pub fn neighbor_list(&self) -> Vec<NodeIdx> {
        let mut v: Vec<NodeIdx> = self.known_nodes().map(|(_, n)| n).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Learns about a peer: offers it to both the leaf set and the
    /// routing table. Returns `true` if either accepted it.
    pub fn consider(&mut self, id: Id, node: NodeIdx) -> bool {
        if node == self.node || id == self.id {
            return false;
        }
        let a = self.leafset.consider(id, node);
        let b = self.rt.consider(id, node);
        a || b
    }

    /// Forgets a peer entirely (declared failed). Returns `true` if it
    /// was known.
    pub fn remove(&mut self, node: NodeIdx) -> bool {
        let a = self.leafset.remove(node);
        let b = self.rt.remove(node);
        a || b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u64) -> Id {
        Id::from_low_u64(v)
    }

    fn n(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    fn state_with(own: u64, peers: &[(u64, u32)]) -> PastryState {
        let mut s = PastryState::new(n(0), id(own), IdSpace::base16(), 8);
        for &(v, i) in peers {
            s.consider(id(v), n(i));
        }
        s
    }

    #[test]
    fn own_key_is_local() {
        let s = state_with(100, &[(50, 1), (150, 2)]);
        assert_eq!(
            s.next_hop(IdSpace::base16(), id(100), |_| false),
            NextHop::Local
        );
    }

    #[test]
    fn leafset_delivery_to_closest() {
        let s = state_with(100, &[(90, 1), (110, 2)]);
        // 108 is covered by the leafset arc and closest to 110.
        assert_eq!(
            s.next_hop(IdSpace::base16(), id(108), |_| false),
            NextHop::Forward(n(2))
        );
        // 101 is closest to the owner itself.
        assert_eq!(
            s.next_hop(IdSpace::base16(), id(101), |_| false),
            NextHop::Local
        );
    }

    #[test]
    fn prefix_routing_outside_leafset() {
        // Owner 100 with a small leafset; key far away routes via the
        // routing table entry matching its first digit.
        let far = 0x7000_0000_0000_0000u64;
        let s = state_with(100, &[(90, 1), (110, 2), (far, 3)]);
        let key = id(0x7000_0000_0000_1234);
        match s.next_hop(IdSpace::base16(), key, |_| false) {
            NextHop::Forward(x) => assert_eq!(x, n(3)),
            other => panic!("expected forward to n3, got {other:?}"),
        }
    }

    #[test]
    fn exclusion_falls_through_to_alternatives() {
        let s = state_with(100, &[(90, 1), (95, 2), (110, 3)]);
        // Key 94: closest is 95 (n2); excluded -> 90 (n1).
        assert_eq!(
            s.next_hop(IdSpace::base16(), id(94), |x| x == n(2)),
            NextHop::Forward(n(1))
        );
    }

    #[test]
    fn rare_case_requires_progress() {
        // Key far outside the leafset with no matching RT entry and no
        // known node closer: deliver locally.
        let s = state_with(100, &[(90, 1), (110, 2)]);
        // All known nodes share prefix 0 with this key, as does the owner
        // (IDs are tiny, key is huge), and none is ring-closer... build a
        // key roughly opposite the cluster.
        let key = Id::from_bytes([0x80; 20]);
        match s.next_hop(IdSpace::base16(), key, |_| false) {
            NextHop::Forward(x) => {
                // If some peer is ring-closer, forwarding is fine; it must
                // not be the owner though.
                assert!(x != n(0));
            }
            NextHop::Local => {}
        }
    }

    #[test]
    fn neighbor_list_is_deduplicated_union() {
        let s = state_with(100, &[(90, 1), (110, 2), (0x7000_0000_0000_0000, 3)]);
        let nbrs = s.neighbor_list();
        assert!(nbrs.contains(&n(1)));
        assert!(nbrs.contains(&n(2)));
        assert!(nbrs.contains(&n(3)));
        // Sorted and unique.
        assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn remove_then_reconsider_readmits() {
        let mut s = state_with(100, &[(90, 1)]);
        assert!(s.remove(n(1)));
        assert!(s.neighbor_list().is_empty());
        assert!(s.consider(id(90), n(1)), "re-integration after recovery");
        assert!(!s.neighbor_list().is_empty());
    }

    #[test]
    fn consider_ignores_self() {
        let mut s = state_with(100, &[]);
        assert!(!s.consider(id(100), n(0)));
        assert!(!s.consider(id(77), n(0)), "own handle never inserted");
    }
}
