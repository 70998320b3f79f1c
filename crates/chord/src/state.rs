//! Per-node Chord state: successor list, predecessor, finger table.

use mpil_id::{Id, ID_BITS};
use mpil_overlay::NodeIdx;

use crate::ring::{in_half_open, in_open};

/// One node's routing state.
///
/// Invariants maintained by every mutator:
///
/// * the successor list is ordered by clockwise distance from this node,
///   holds no duplicates, and never contains the node itself;
/// * `fingers[i]`, when present, is never the node itself;
/// * the predecessor, when present, is not the node itself.
#[derive(Debug, Clone)]
pub struct ChordState {
    node: NodeIdx,
    id: Id,
    max_successors: usize,
    successors: Vec<NodeIdx>,
    predecessor: Option<NodeIdx>,
    fingers: Vec<Option<NodeIdx>>,
}

impl ChordState {
    /// Creates an empty state for `node` with identifier `id`.
    pub fn new(node: NodeIdx, id: Id, max_successors: usize) -> Self {
        assert!(max_successors >= 1, "successor list must hold >= 1 entry");
        ChordState {
            node,
            id,
            max_successors,
            successors: Vec::new(),
            predecessor: None,
            fingers: vec![None; ID_BITS],
        }
    }

    /// This node's index.
    pub fn node(&self) -> NodeIdx {
        self.node
    }

    /// This node's identifier.
    pub fn id(&self) -> Id {
        self.id
    }

    /// The first (closest clockwise) successor, if any.
    pub fn successor(&self) -> Option<NodeIdx> {
        self.successors.first().copied()
    }

    /// The full successor list, closest first.
    pub fn successors(&self) -> &[NodeIdx] {
        &self.successors
    }

    /// The predecessor pointer.
    pub fn predecessor(&self) -> Option<NodeIdx> {
        self.predecessor
    }

    /// Finger `i` (the cached successor of `id + 2^i`), if known. The
    /// engine routes through [`ChordState::closest_preceding`]; tests
    /// read single slots.
    #[cfg(test)]
    pub(crate) fn finger(&self, i: usize) -> Option<NodeIdx> {
        self.fingers[i]
    }

    /// Installs finger `i`. Pointing a finger at the node itself clears
    /// the slot instead (routing to self is never useful).
    pub(crate) fn set_finger(&mut self, i: usize, target: NodeIdx) {
        self.fingers[i] = (target != self.node).then_some(target);
    }

    /// Offers `candidate` (with identifier `cand_id`) as a predecessor,
    /// per Chord's `notify`: adopted iff there is no predecessor or the
    /// candidate lies in `(predecessor, self)`.
    pub(crate) fn offer_predecessor(&mut self, candidate: NodeIdx, cand_id: Id, ids: &[Id]) {
        if candidate == self.node {
            return;
        }
        match self.predecessor {
            None => self.predecessor = Some(candidate),
            Some(p) => {
                if in_open(ids[p.index()], cand_id, self.id) {
                    self.predecessor = Some(candidate);
                }
            }
        }
    }

    /// Offers `candidate` as a successor; it is inserted at its clockwise
    /// rank if it improves the list. Returns `true` if the list changed.
    pub(crate) fn offer_successor(&mut self, candidate: NodeIdx, ids: &[Id]) -> bool {
        if candidate == self.node || self.successors.contains(&candidate) {
            return false;
        }
        let cand_id = ids[candidate.index()];
        let pos = self
            .successors
            .iter()
            .position(|&s| in_open(self.id, cand_id, ids[s.index()]))
            .unwrap_or(self.successors.len());
        if pos == self.max_successors {
            return false;
        }
        self.successors.insert(pos, candidate);
        self.successors.truncate(self.max_successors);
        true
    }

    /// Replaces the successor list wholesale with `head` followed by
    /// `rest` (the reply of a stabilize round), restoring the clockwise
    /// ordering and de-duplication invariants.
    pub(crate) fn adopt_successor_list(&mut self, head: NodeIdx, rest: &[NodeIdx], ids: &[Id]) {
        let mut merged: Vec<NodeIdx> = Vec::with_capacity(rest.len() + 1);
        for &cand in std::iter::once(&head).chain(rest) {
            if cand != self.node && !merged.contains(&cand) {
                merged.push(cand);
            }
        }
        // A stale reply can interleave ring positions; re-sort by
        // clockwise distance so successors[0] is always the closest.
        merged.sort_by_key(|&c| crate::ring::dist_cw(self.id, ids[c.index()]));
        merged.truncate(self.max_successors);
        self.successors = merged;
    }

    /// Removes every pointer to `dead` (failure declaration). Returns
    /// `true` if anything was removed.
    pub(crate) fn remove_node(&mut self, dead: NodeIdx) -> bool {
        let mut removed = false;
        let before = self.successors.len();
        self.successors.retain(|&s| s != dead);
        removed |= self.successors.len() != before;
        if self.predecessor == Some(dead) {
            self.predecessor = None;
            removed = true;
        }
        for f in &mut self.fingers {
            if *f == Some(dead) {
                *f = None;
                removed = true;
            }
        }
        removed
    }

    /// Does `key` belong to this node?
    ///
    /// True iff `key ∈ (predecessor, self]`; with no predecessor the test
    /// falls back to "no known peer is a better next hop", which keeps
    /// routing terminating while the ring heals.
    pub fn owns(&self, key: Id, ids: &[Id]) -> bool {
        match self.predecessor {
            Some(p) => in_half_open(ids[p.index()], key, self.id),
            None => {
                self.closest_preceding(key, ids).is_none() && {
                    match self.successor() {
                        // If the key belongs to our successor, it is not ours.
                        Some(s) => !in_half_open(self.id, key, ids[s.index()]),
                        None => true,
                    }
                }
            }
        }
    }

    /// The known peer that most closely precedes `key` clockwise —
    /// Chord's `closest_preceding_node`, searching the finger table and
    /// the successor list. Returns `None` when no known peer lies in
    /// `(self, key)`.
    pub(crate) fn closest_preceding(&self, key: Id, ids: &[Id]) -> Option<NodeIdx> {
        let mut best: Option<NodeIdx> = None;
        let mut consider = |cand: NodeIdx| {
            let cid = ids[cand.index()];
            if !in_open(self.id, cid, key) {
                return;
            }
            match best {
                None => best = Some(cand),
                Some(b) => {
                    // Closest preceding = furthest clockwise before key.
                    if in_open(ids[b.index()], cid, key) {
                        best = Some(cand);
                    }
                }
            }
        };
        for f in self.fingers.iter().rev().flatten() {
            consider(*f);
        }
        for &s in &self.successors {
            consider(s);
        }
        best
    }

    /// The next routing hop for `key`: the successor if the key lands in
    /// `(self, successor]`, otherwise the closest preceding peer, else
    /// the first successor as a last resort.
    pub fn next_hop(&self, key: Id, ids: &[Id]) -> Option<NodeIdx> {
        let succ = self.successor()?;
        if in_half_open(self.id, key, ids[succ.index()]) {
            return Some(succ);
        }
        self.closest_preceding(key, ids).or(Some(succ))
    }

    /// Every distinct peer this node points at (successors ∪ fingers ∪
    /// predecessor) — the frozen neighbor list MPIL routes on in the
    /// overlay-independence experiments.
    pub fn neighbor_list(&self) -> Vec<NodeIdx> {
        let mut out: Vec<NodeIdx> = Vec::new();
        let mut push = |n: NodeIdx| {
            if n != self.node && !out.contains(&n) {
                out.push(n);
            }
        };
        for &s in &self.successors {
            push(s);
        }
        for f in self.fingers.iter().flatten() {
            push(*f);
        }
        if let Some(p) = self.predecessor {
            push(p);
        }
        out
    }

    /// Sets the predecessor directly (bootstrap only).
    pub(crate) fn set_predecessor(&mut self, p: Option<NodeIdx>) {
        debug_assert!(p != Some(self.node));
        self.predecessor = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(vals: &[u64]) -> Vec<Id> {
        vals.iter().copied().map(Id::from_low_u64).collect()
    }

    fn n(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    /// Nodes at 10, 20, 30, 40; state belongs to node 0 (id 10).
    fn four_node_state() -> (ChordState, Vec<Id>) {
        let table = ids(&[10, 20, 30, 40]);
        let mut st = ChordState::new(n(0), table[0], 3);
        st.offer_successor(n(1), &table);
        st.offer_successor(n(2), &table);
        st.set_predecessor(Some(n(3)));
        (st, table)
    }

    #[test]
    fn successors_keep_clockwise_order() {
        let table = ids(&[10, 20, 30, 40]);
        let mut st = ChordState::new(n(0), table[0], 4);
        // Offer out of order; the list must sort itself clockwise.
        assert!(st.offer_successor(n(3), &table));
        assert!(st.offer_successor(n(1), &table));
        assert!(st.offer_successor(n(2), &table));
        assert_eq!(st.successors(), &[n(1), n(2), n(3)]);
        // Duplicates and self are rejected.
        assert!(!st.offer_successor(n(1), &table));
        assert!(!st.offer_successor(n(0), &table));
    }

    #[test]
    fn successor_list_truncates_at_capacity() {
        let table = ids(&[10, 20, 30, 40]);
        let mut st = ChordState::new(n(0), table[0], 2);
        st.offer_successor(n(3), &table);
        st.offer_successor(n(2), &table);
        st.offer_successor(n(1), &table);
        assert_eq!(st.successors(), &[n(1), n(2)]);
        // A candidate worse than the whole full list is rejected.
        assert!(!st.offer_successor(n(3), &table));
    }

    #[test]
    fn ownership_uses_predecessor_interval() {
        let (st, table) = four_node_state();
        // Node 10 with predecessor 40 owns (40, 10]: keys 41.. and ..10.
        assert!(st.owns(Id::from_low_u64(5), &table));
        assert!(st.owns(Id::from_low_u64(10), &table));
        assert!(st.owns(Id::from_low_u64(45), &table));
        assert!(!st.owns(Id::from_low_u64(15), &table));
        assert!(!st.owns(Id::from_low_u64(40), &table));
    }

    #[test]
    fn next_hop_prefers_final_successor_delivery() {
        let (st, table) = four_node_state();
        // Key 15 ∈ (10, 20] → deliver to successor n(1).
        assert_eq!(st.next_hop(Id::from_low_u64(15), &table), Some(n(1)));
        // Key 35 → closest preceding known peer is n(2) (id 30).
        assert_eq!(st.next_hop(Id::from_low_u64(35), &table), Some(n(2)));
    }

    #[test]
    fn closest_preceding_scans_fingers_and_successors() {
        let table = ids(&[10, 20, 30, 40, 50]);
        let mut st = ChordState::new(n(0), table[0], 2);
        st.offer_successor(n(1), &table);
        st.set_finger(5, n(3)); // id 40
                                // Key 45: finger n(3) (40) precedes it more closely than n(1) (20).
        assert_eq!(
            st.closest_preceding(Id::from_low_u64(45), &table),
            Some(n(3))
        );
        // Key 15: only n(1)'s id 20 is NOT in (10, 15); nothing qualifies.
        assert_eq!(st.closest_preceding(Id::from_low_u64(15), &table), None);
    }

    #[test]
    fn notify_adopts_closer_predecessor() {
        let table = ids(&[10, 20, 30, 40]);
        let mut st = ChordState::new(n(0), table[0], 2);
        st.offer_predecessor(n(2), table[2], &table); // 30
        assert_eq!(st.predecessor(), Some(n(2)));
        // 40 ∈ (30, 10) → closer.
        st.offer_predecessor(n(3), table[3], &table);
        assert_eq!(st.predecessor(), Some(n(3)));
        // 20 ∉ (40, 10) → rejected.
        st.offer_predecessor(n(1), table[1], &table);
        assert_eq!(st.predecessor(), Some(n(3)));
    }

    #[test]
    fn remove_node_purges_all_pointers() {
        let (mut st, _table) = four_node_state();
        st.set_finger(7, n(1));
        assert!(st.remove_node(n(1)));
        assert!(!st.successors().contains(&n(1)));
        assert_eq!(st.finger(7), None);
        assert!(st.remove_node(n(3))); // predecessor
        assert_eq!(st.predecessor(), None);
        assert!(!st.remove_node(n(3))); // already gone
    }

    #[test]
    fn neighbor_list_dedups_and_excludes_self() {
        let (mut st, _table) = four_node_state();
        st.set_finger(3, n(1)); // duplicate of successor
        st.set_finger(9, n(0)); // self → cleared
        let nl = st.neighbor_list();
        assert_eq!(nl.len(), 3); // n1, n2, n3
        assert!(!nl.contains(&n(0)));
    }

    #[test]
    fn set_finger_to_self_clears_slot() {
        let (mut st, _table) = four_node_state();
        st.set_finger(4, n(2));
        assert_eq!(st.finger(4), Some(n(2)));
        st.set_finger(4, n(0));
        assert_eq!(st.finger(4), None);
    }

    #[test]
    fn adopt_successor_list_truncates_and_dedups() {
        let table = ids(&[10, 20, 30, 40, 50]);
        let mut st = ChordState::new(n(0), table[0], 3);
        st.adopt_successor_list(n(1), &[n(1), n(0), n(2), n(3), n(4)], &table);
        assert_eq!(st.successors(), &[n(1), n(2), n(3)]);
    }
}
