//! The Pastry leaf set: the `l/2` numerically closest nodes on each side
//! of the owner's position on the 2^160 identifier ring.

use mpil_id::{clockwise_offset, ring_distance, Id};
use mpil_overlay::NodeIdx;

/// Clockwise distance from `a` to `b` on the ring (`b - a mod 2^160`),
/// as the native integers [`clockwise_offset`] orders by.
#[inline]
fn cw(a: Id, b: Id) -> (u128, u32) {
    clockwise_offset(a, b)
}

/// A leaf set with capacity `l/2` per side.
///
/// The *right* side holds clockwise successors (numerically next IDs,
/// wrapping), the *left* side counter-clockwise predecessors, each sorted
/// nearest-first. A node can appear on both sides when the overlay is
/// small relative to `l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSet {
    own: Id,
    half: usize,
    left: Vec<(Id, NodeIdx)>,
    right: Vec<(Id, NodeIdx)>,
}

impl LeafSet {
    /// Creates an empty leaf set for a node with ID `own` and total
    /// capacity `l` (`l/2` per side).
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero or odd.
    pub fn new(own: Id, l: usize) -> Self {
        assert!(
            l >= 2 && l.is_multiple_of(2),
            "leaf set size must be even and >= 2"
        );
        LeafSet {
            own,
            half: l / 2,
            left: Vec::new(),
            right: Vec::new(),
        }
    }

    /// Number of distinct members.
    pub fn len(&self) -> usize {
        let mut m: Vec<NodeIdx> = self.members().collect();
        m.sort_unstable();
        m.dedup();
        m.len()
    }

    /// Returns `true` if both sides are empty.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// Returns `true` if either side has free capacity.
    pub(crate) fn has_room(&self) -> bool {
        self.left.len() < self.half || self.right.len() < self.half
    }

    /// Iterates over members (a node on both sides appears twice).
    pub fn members(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.left
            .iter()
            .map(|&(_, n)| n)
            .chain(self.right.iter().map(|&(_, n)| n))
    }

    /// Members of the clockwise (successor) side, nearest first.
    pub fn right_side(&self) -> &[(Id, NodeIdx)] {
        &self.right
    }

    /// Members of the counter-clockwise (predecessor) side, nearest first.
    pub fn left_side(&self) -> &[(Id, NodeIdx)] {
        &self.left
    }

    /// Offers a candidate to each side that does not hold `node` yet; it
    /// is kept on a side if it is among the `l/2` nearest there. Each
    /// side stays sorted nearest-first: the candidate goes in by binary
    /// search on its ring offset from the owner, after any member at the
    /// same offset (so an earlier offer wins a tie), and the side is cut
    /// back to `l/2`. Returns `true` if `node` is on either side
    /// afterwards, unless it was already on both (then `false`).
    ///
    /// # Panics
    ///
    /// Panics if the candidate carries the owner's own ID.
    pub fn consider(&mut self, id: Id, node: NodeIdx) -> bool {
        assert!(id != self.own, "cannot insert the owner into its leaf set");
        let own = self.own;
        let already_left = self.left.iter().any(|&(_, n)| n == node);
        let already_right = self.right.iter().any(|&(_, n)| n == node);
        if already_left && already_right {
            return false;
        }
        let kept_left =
            already_left || insert_by(&mut self.left, self.half, id, node, |x| cw(x, own));
        let kept_right =
            already_right || insert_by(&mut self.right, self.half, id, node, |x| cw(own, x));
        kept_left || kept_right
    }

    /// Is `key` within the arc covered by the leaf set (from the farthest
    /// left member, through the owner, to the farthest right member)?
    /// An empty side is treated as not covering anything beyond the owner.
    pub fn covers(&self, key: Id) -> bool {
        if key == self.own {
            return true;
        }
        let cw_key = cw(self.own, key);
        let ccw_key = cw(key, self.own);
        let right_reach = self.right.last().map(|&(id, _)| cw(self.own, id));
        let left_reach = self.left.last().map(|&(id, _)| cw(id, self.own));
        if let Some(r) = right_reach {
            if cw_key <= r {
                return true;
            }
        }
        if let Some(l) = left_reach {
            if ccw_key <= l {
                return true;
            }
        }
        false
    }

    /// The member (or the owner) numerically closest to `key`, skipping
    /// members for which `exclude` returns true. Returns `None` exactly
    /// when the owner itself is closest among the non-excluded.
    pub fn closest(&self, key: Id, exclude: impl Fn(NodeIdx) -> bool) -> Option<(Id, NodeIdx)> {
        let mut best: Option<(Id, NodeIdx)> = None;
        let mut best_d = ring_distance(self.own, key);
        for &(id, node) in self.left.iter().chain(self.right.iter()) {
            if exclude(node) {
                continue;
            }
            let d = ring_distance(id, key);
            if d < best_d {
                best_d = d;
                best = Some((id, node));
            }
        }
        best
    }

    /// Removes a node from both sides. Returns `true` if present.
    pub fn remove(&mut self, node: NodeIdx) -> bool {
        let before = self.left.len() + self.right.len();
        self.left.retain(|&(_, n)| n != node);
        self.right.retain(|&(_, n)| n != node);
        before != self.left.len() + self.right.len()
    }

    /// The farthest live member on the side that lost `hint` (used to pull
    /// a replacement leaf set during repair); falls back to any member.
    pub(crate) fn repair_contact(&self, exclude: impl Fn(NodeIdx) -> bool) -> Option<NodeIdx> {
        self.right
            .iter()
            .rev()
            .chain(self.left.iter().rev())
            .map(|&(_, n)| n)
            .find(|&n| !exclude(n))
    }
}

/// Inserts `(id, node)` into `side`, sorted nearest-first by `offset`,
/// after every entry at an equal offset, and cuts `side` back to `half`.
/// Returns whether the entry stayed.
fn insert_by(
    side: &mut Vec<(Id, NodeIdx)>,
    half: usize,
    id: Id,
    node: NodeIdx,
    offset: impl Fn(Id) -> (u128, u32),
) -> bool {
    let key = offset(id);
    let at = side.partition_point(|&(x, _)| offset(x) <= key);
    if at >= half {
        return false;
    }
    side.insert(at, (id, node));
    side.truncate(half);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpil_id::{wrapping_add, wrapping_sub};
    use proptest::prelude::*;

    fn id(v: u64) -> Id {
        Id::from_low_u64(v)
    }

    fn n(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    fn build(own: u64, l: usize, candidates: &[(u64, u32)]) -> LeafSet {
        let mut ls = LeafSet::new(id(own), l);
        for &(v, i) in candidates {
            ls.consider(id(v), n(i));
        }
        ls
    }

    #[test]
    fn keeps_nearest_per_side() {
        let ls = build(
            100,
            4,
            &[(10, 1), (90, 2), (99, 3), (101, 4), (150, 5), (102, 6)],
        );
        // Right (successors of 100): 101, 102 (150 trimmed).
        let right: Vec<u32> = ls
            .right_side()
            .iter()
            .map(|&(_, x)| x.index() as u32)
            .collect();
        assert_eq!(right, vec![4, 6]);
        // Left (predecessors): 99, 90.
        let left: Vec<u32> = ls
            .left_side()
            .iter()
            .map(|&(_, x)| x.index() as u32)
            .collect();
        assert_eq!(left, vec![3, 2]);
    }

    #[test]
    fn wraps_around_the_ring() {
        // Own at the very top of the 160-bit ring: small IDs are its
        // clockwise successors; MAX−1 is a predecessor.
        let own = Id::MAX;
        let pred = wrapping_sub(Id::MAX, id(1));
        let mut ls = LeafSet::new(own, 4);
        ls.consider(id(3), n(1));
        ls.consider(pred, n(2));
        let right: Vec<u32> = ls
            .right_side()
            .iter()
            .map(|&(_, x)| x.index() as u32)
            .collect();
        assert_eq!(right[0], 1, "3 wraps around as the nearest successor");
        let left: Vec<u32> = ls
            .left_side()
            .iter()
            .map(|&(_, x)| x.index() as u32)
            .collect();
        assert_eq!(left[0], 2, "MAX-1 is the nearest predecessor");
    }

    #[test]
    fn covers_detects_range_with_wrap() {
        let ls = build(100, 4, &[(90, 1), (95, 2), (110, 3), (120, 4)]);
        assert!(ls.covers(id(100)));
        assert!(ls.covers(id(93)));
        assert!(ls.covers(id(115)));
        assert!(!ls.covers(id(50)));
        assert!(!ls.covers(id(500)));
    }

    #[test]
    fn closest_picks_numerically_nearest() {
        let ls = build(100, 4, &[(90, 1), (95, 2), (110, 3), (120, 4)]);
        assert_eq!(ls.closest(id(94), |_| false), Some((id(95), n(2))));
        assert_eq!(ls.closest(id(117), |_| false), Some((id(120), n(4))));
        // Owner is closest for keys near 100.
        assert_eq!(ls.closest(id(101), |_| false), None);
    }

    #[test]
    fn closest_respects_exclusion() {
        let ls = build(100, 4, &[(90, 1), (95, 2), (110, 3)]);
        // 95 excluded -> 90 is next best on that side for key 94.
        assert_eq!(ls.closest(id(94), |x| x == n(2)), Some((id(90), n(1))));
    }

    #[test]
    fn remove_drops_both_sides() {
        // Small overlay: one node can sit on both sides.
        let mut ls = build(100, 8, &[(95, 1), (110, 2)]);
        assert!(ls.remove(n(1)));
        assert!(!ls.remove(n(1)));
        assert!(ls.members().all(|x| x != n(1)));
    }

    #[test]
    fn duplicate_consider_is_noop() {
        let mut ls = build(100, 4, &[(95, 1)]);
        assert!(!ls.consider(id(95), n(1)), "already on both sides");
        assert_eq!(ls.members().count(), 2, "once per side");
        assert_eq!(ls.len(), 1, "one distinct member");
    }

    #[test]
    fn repair_contact_prefers_far_live_members() {
        let ls = build(100, 4, &[(90, 1), (95, 2), (110, 3), (120, 4)]);
        // Farthest right member is 120 (node 4).
        assert_eq!(ls.repair_contact(|_| false), Some(n(4)));
        // Exclude right side entirely -> falls back to left.
        assert_eq!(
            ls.repair_contact(|x| x == n(4) || x == n(3)),
            Some(n(1)),
            "farthest left member"
        );
        assert_eq!(ls.repair_contact(|_| true), None);
    }

    #[test]
    #[should_panic(expected = "owner")]
    fn rejects_self_insertion() {
        let mut ls = LeafSet::new(id(5), 4);
        ls.consider(id(5), n(0));
    }

    #[test]
    fn empty_set_basics() {
        let ls = LeafSet::new(id(1), 8);
        assert!(ls.is_empty());
        assert!(ls.has_room());
        assert!(!ls.covers(id(2)));
        assert!(ls.covers(id(1)));
        assert_eq!(ls.closest(id(2), |_| false), None);
    }

    /// What `consider` and `remove` did before each side was kept in
    /// order: push the candidate on each side that lacks its node, then
    /// re-sort both sides by ring offset (a stable sort over offsets
    /// computed as `Id`s), drop a node's repeats and cut back to `l/2`.
    struct Resort {
        own: Id,
        half: usize,
        left: Vec<(Id, NodeIdx)>,
        right: Vec<(Id, NodeIdx)>,
    }

    impl Resort {
        fn consider(&mut self, id: Id, node: NodeIdx) -> bool {
            let already_left = self.left.iter().any(|&(_, n)| n == node);
            let already_right = self.right.iter().any(|&(_, n)| n == node);
            if already_left && already_right {
                return false;
            }
            if !already_left {
                self.left.push((id, node));
            }
            if !already_right {
                self.right.push((id, node));
            }
            self.normalize();
            self.left.iter().any(|&(_, n)| n == node) || self.right.iter().any(|&(_, n)| n == node)
        }

        fn normalize(&mut self) {
            let own = self.own;
            self.right.sort_by_key(|&(id, _)| wrapping_sub(id, own));
            self.right.dedup_by_key(|&mut (_, n)| n);
            self.right.truncate(self.half);
            self.left.sort_by_key(|&(id, _)| wrapping_sub(own, id));
            self.left.dedup_by_key(|&mut (_, n)| n);
            self.left.truncate(self.half);
        }

        fn remove(&mut self, node: NodeIdx) -> bool {
            let before = self.left.len() + self.right.len();
            self.left.retain(|&(_, n)| n != node);
            self.right.retain(|&(_, n)| n != node);
            before != self.left.len() + self.right.len()
        }
    }

    fn arb_id() -> impl Strategy<Value = Id> {
        proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Kept in order, a leaf set is what re-sorting made of it, side
        /// for side and answer for answer: owners at both ends of the
        /// ring, candidates just either side of the owner (so some wrap
        /// past 2^160), far ones, one id under several nodes, nodes
        /// offered again under the same or another id, and removals.
        #[test]
        fn consider_and_remove_match_the_resort(
            own_at in 0u8..4,
            random_own in arb_id(),
            l in prop::sample::select(vec![2usize, 4, 16]),
            pool in proptest::array::uniform4(arb_id()),
            ops in prop::collection::vec(
                (0u8..10, 0u32..12, 1u64..6, arb_id(), 0usize..4),
                1..80,
            ),
        ) {
            let own = match own_at {
                0 => Id::ZERO,
                1 => Id::MAX,
                _ => random_own,
            };
            let mut ls = LeafSet::new(own, l);
            let mut reference = Resort { own, half: l / 2, left: Vec::new(), right: Vec::new() };
            for (kind, node, delta, random, shared) in ops {
                let node = n(node);
                let near = Id::from_low_u64(delta);
                let id = match kind {
                    0..=2 => wrapping_add(own, near),
                    3..=5 => wrapping_sub(own, near),
                    6 => random,
                    7 => pool[shared],
                    8 => wrapping_add(own, Id::from_low_u64(node.index() as u64 + 1)),
                    _ => {
                        prop_assert_eq!(ls.remove(node), reference.remove(node));
                        continue;
                    }
                };
                if id == own {
                    continue;
                }
                prop_assert_eq!(ls.consider(id, node), reference.consider(id, node));
                prop_assert_eq!(ls.left_side(), &reference.left[..]);
                prop_assert_eq!(ls.right_side(), &reference.right[..]);
            }
        }
    }
}
