//! Bounded partial views: the storage under HyParView's active and
//! passive views and Plumtree's eager sets.
//!
//! Each node knows a small sample of the overlay. The three invariants
//! every operation preserves — **no self-entry, no duplicates, never
//! over capacity** — are what the property suite in
//! `tests/properties.rs` hammers under churn.

use mpil_overlay::NodeIdx;
use rand::Rng;

use crate::peers::InlinePeers;

/// Views at or below this capacity store their entries inline.
///
/// Inlining the slots into [`PartialView`] means a shuffle touches one
/// line of the views table instead of chasing a per-node heap `Vec`, and
/// million-view tables drop the per-view allocation entirely.
const INLINE_VIEW: usize = 8;

/// Entry storage: inline slots for small capacities, a heap `Vec`
/// beyond [`INLINE_VIEW`]. The variant is fixed at construction from
/// the view's capacity and never changes. Every mutation preserves slot
/// order exactly as the `Vec` operations it replaces (order feeds the
/// deterministic sampling).
#[derive(Debug, Clone)]
enum Entries {
    Inline(InlinePeers<INLINE_VIEW>),
    Heap(Vec<NodeIdx>),
}

impl Entries {
    fn new(capacity: usize) -> Self {
        if capacity <= INLINE_VIEW {
            Entries::Inline(InlinePeers::new())
        } else {
            Entries::Heap(Vec::with_capacity(capacity))
        }
    }

    fn as_slice(&self) -> &[NodeIdx] {
        match self {
            Entries::Inline(peers) => peers.as_slice(),
            Entries::Heap(v) => v,
        }
    }

    /// Appends an entry. Callers guarantee room (the view is bounded by
    /// its capacity, and inline storage exists only for capacities at
    /// most [`INLINE_VIEW`]).
    fn push(&mut self, peer: NodeIdx) {
        match self {
            Entries::Inline(peers) => peers.push(peer),
            Entries::Heap(v) => v.push(peer),
        }
    }

    fn remove(&mut self, slot: usize) {
        match self {
            Entries::Inline(peers) => peers.remove(slot),
            Entries::Heap(v) => {
                v.remove(slot);
            }
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(NodeIdx) -> bool) {
        match self {
            Entries::Inline(peers) => peers.retain(keep),
            Entries::Heap(v) => v.retain(|&p| keep(p)),
        }
    }

    fn clear(&mut self) {
        match self {
            Entries::Inline(peers) => peers.clear(),
            Entries::Heap(v) => v.clear(),
        }
    }
}

/// A bounded, self-free, duplicate-free neighbor sample.
#[derive(Debug, Clone)]
pub struct PartialView {
    owner: NodeIdx,
    capacity: usize,
    entries: Entries,
}

impl PartialEq for PartialView {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner
            && self.capacity == other.capacity
            && self.entries.as_slice() == other.entries.as_slice()
    }
}

impl PartialView {
    /// An empty view owned by `owner`, holding at most `capacity`
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: NodeIdx, capacity: usize) -> Self {
        assert!(capacity >= 1, "a view needs capacity for at least 1 peer");
        PartialView {
            owner,
            capacity,
            entries: Entries::new(capacity),
        }
    }

    /// The owning node (never present in the view).
    pub fn owner(&self) -> NodeIdx {
        self.owner
    }

    /// Number of neighbors currently known.
    pub fn len(&self) -> usize {
        self.entries.as_slice().len()
    }

    /// Returns `true` when no neighbors are known.
    pub fn is_empty(&self) -> bool {
        self.entries.as_slice().is_empty()
    }

    /// Is `peer` in the view?
    pub fn contains(&self, peer: NodeIdx) -> bool {
        self.entries.as_slice().contains(&peer)
    }

    /// The neighbors, in slot order.
    pub fn peers(&self) -> Vec<NodeIdx> {
        self.entries.as_slice().to_vec()
    }

    /// Iterates the neighbors in slot order.
    pub fn iter(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.entries.as_slice().iter().copied()
    }

    /// Removes `peer`; returns whether it was present.
    pub fn remove(&mut self, peer: NodeIdx) -> bool {
        let before = self.len();
        self.entries.retain(|p| p != peer);
        self.len() != before
    }

    /// Drops every entry (re-join support).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Inserts `peer` if it is not the owner and not already present; a
    /// full view evicts its oldest entry (slots keep insertion order).
    /// Returns whether the view changed.
    pub fn insert(&mut self, peer: NodeIdx) -> bool {
        self.insert_evicting(peer, |_| 0)
    }

    /// [`PartialView::insert`], with the slot a full view gives up chosen
    /// by `victim` from the view's length (HyParView's passive view draws
    /// it uniformly). `victim` is asked only when `peer` goes into a full
    /// view; the other entries keep their order. One scan of the view for
    /// `peer`, none for the victim.
    pub(crate) fn insert_evicting(
        &mut self,
        peer: NodeIdx,
        victim: impl FnOnce(usize) -> usize,
    ) -> bool {
        if peer == self.owner || self.contains(peer) {
            return false;
        }
        if self.len() == self.capacity {
            self.entries.remove(victim(self.len()));
        }
        self.entries.push(peer);
        true
    }

    /// Draws up to `k` distinct neighbors into `out` (cleared first),
    /// excluding `exclude` when an alternative exists. A partial
    /// Fisher–Yates over the slot order, so the draw is a pure function
    /// of the RNG stream; engines pass a reused scratch vector so
    /// steady-state shuffles and walk steps allocate nothing.
    pub(crate) fn sample_into<R: Rng + ?Sized>(
        &self,
        k: usize,
        exclude: Option<NodeIdx>,
        rng: &mut R,
        out: &mut Vec<NodeIdx>,
    ) {
        out.clear();
        let entries = self.entries.as_slice();
        match exclude {
            Some(x) if entries.len() > 1 => out.extend(entries.iter().filter(|&&p| p != x)),
            _ => out.extend_from_slice(entries),
        }
        let take = k.min(out.len());
        for i in 0..take {
            let j = rng.gen_range(i..out.len());
            out.swap(i, j);
        }
        out.truncate(take);
    }

    /// One neighbor drawn uniformly, or `None` (and no draw) when the
    /// view is empty: the draw `sample_into(1, None, ..)` makes, without
    /// copying the view first.
    pub(crate) fn sample_one<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeIdx> {
        let entries = self.entries.as_slice();
        if entries.is_empty() {
            return None;
        }
        Some(entries[rng.gen_range(0..entries.len())])
    }

    /// Checks the structural invariants (property tests).
    ///
    /// # Panics
    ///
    /// Panics if the view contains its owner, a duplicate, or more than
    /// `capacity` entries.
    pub fn assert_invariants(&self) {
        let entries = self.entries.as_slice();
        assert!(
            entries.len() <= self.capacity,
            "{} holds {} entries, capacity {}",
            self.owner,
            entries.len(),
            self.capacity
        );
        for (i, &peer) in entries.iter().enumerate() {
            assert!(peer != self.owner, "{} contains itself", self.owner);
            assert!(
                !entries[i + 1..].contains(&peer),
                "{} contains {} twice",
                self.owner,
                peer
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn node(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    #[test]
    fn insert_rejects_self_and_duplicates() {
        let mut v = PartialView::new(node(0), 4);
        assert!(!v.insert(node(0)));
        assert!(v.insert(node(1)));
        assert!(!v.insert(node(1)));
        assert_eq!(v.len(), 1);
        v.assert_invariants();
    }

    #[test]
    fn overflow_evicts_the_oldest() {
        let mut v = PartialView::new(node(0), 2);
        v.insert(node(1));
        v.insert(node(2));
        v.insert(node(3));
        assert_eq!(v.len(), 2);
        assert!(!v.contains(node(1)), "oldest should be gone");
        assert!(v.contains(node(2)) && v.contains(node(3)));
        assert!(v.remove(node(2)));
        assert!(!v.remove(node(9)));
        assert_eq!(v.peers(), [node(3)]);
        v.assert_invariants();
    }

    #[test]
    fn a_drawn_victim_leaves_and_the_rest_keep_their_order() {
        let mut v = PartialView::new(node(0), 4);
        for p in 1..=4 {
            v.insert(node(p));
        }
        let asked = |_| panic!("a peer that does not go in draws no victim");
        assert!(!v.insert_evicting(node(3), asked));
        assert!(!v.insert_evicting(node(0), asked));
        assert!(v.insert_evicting(node(5), |len| {
            assert_eq!(len, 4);
            1
        }));
        assert_eq!(v.peers(), [node(1), node(3), node(4), node(5)]);
        v.assert_invariants();
    }

    #[test]
    fn random_eviction_matches_draw_remove_insert() {
        // The reference admits in three steps: a victim drawn with
        // `sample_one`, removed by value, then `insert`. Eviction by slot
        // takes the same draws and leaves the same slots, inline and on
        // the heap.
        for capacity in [6, 12] {
            let mut peers = SmallRng::seed_from_u64(capacity as u64);
            let (mut fast, mut slow) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(5));
            let mut by_slot = PartialView::new(node(0), capacity);
            let mut by_value = by_slot.clone();
            for _ in 0..2_000 {
                let peer = node(peers.gen_range(0..3 * capacity as u32));
                by_slot.insert_evicting(peer, |len| fast.gen_range(0..len));
                if peer != node(0) && !by_value.contains(peer) {
                    if by_value.len() >= capacity {
                        let victim = by_value.sample_one(&mut slow).unwrap();
                        by_value.remove(victim);
                    }
                    by_value.insert(peer);
                }
                assert_eq!(by_slot, by_value);
                assert_eq!(fast.next_u64(), slow.next_u64(), "same draws taken");
            }
        }
    }

    #[test]
    fn sample_is_distinct_and_respects_exclusion() {
        let mut v = PartialView::new(node(0), 8);
        for p in 1..=8 {
            v.insert(node(p));
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = Vec::new();
        for _ in 0..50 {
            v.sample_into(5, Some(node(3)), &mut rng, &mut s);
            assert_eq!(s.len(), 5);
            assert!(!s.contains(&node(3)));
            let set: fxhash::FxHashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 5, "sample must be distinct");
        }
        // With a single entry the exclusion is waived rather than
        // returning nothing.
        let mut lone = PartialView::new(node(0), 2);
        lone.insert(node(1));
        lone.sample_into(1, Some(node(1)), &mut rng, &mut s);
        assert_eq!(s, [node(1)]);
    }

    #[test]
    fn sample_one_is_the_single_draw_of_sample_into() {
        let mut s = Vec::new();
        for len in 0..=12u32 {
            let mut v = PartialView::new(node(0), 12);
            for p in 1..=len {
                v.insert(node(p));
            }
            for seed in 0..20 {
                let mut one = SmallRng::seed_from_u64(seed);
                let mut into = SmallRng::seed_from_u64(seed);
                v.sample_into(1, None, &mut into, &mut s);
                assert_eq!(v.sample_one(&mut one), s.first().copied());
                assert_eq!(one.next_u64(), into.next_u64(), "same draws taken");
            }
        }
        // An empty view draws nothing at all.
        let empty = PartialView::new(node(0), 4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut untouched = SmallRng::seed_from_u64(3);
        assert_eq!(empty.sample_one(&mut rng), None);
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }
}
