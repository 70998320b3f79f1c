//! Bounded partial views: the storage under HyParView's active and
//! passive views and Plumtree's eager sets.
//!
//! Each node knows a small sample of the overlay. The three invariants
//! every operation preserves — **no self-entry, no duplicates, never
//! over capacity** — are what the property suite in
//! `tests/properties.rs` hammers under churn.

use mpil_overlay::NodeIdx;
use rand::Rng;

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
    Inline {
        len: u8,
        slots: [NodeIdx; INLINE_VIEW],
    },
    Heap(Vec<NodeIdx>),
}

impl Entries {
    fn new(capacity: usize) -> Self {
        if capacity <= INLINE_VIEW {
            Entries::Inline {
                len: 0,
                slots: [NodeIdx::new(0); INLINE_VIEW],
            }
        } else {
            Entries::Heap(Vec::with_capacity(capacity))
        }
    }

    fn as_slice(&self) -> &[NodeIdx] {
        match self {
            Entries::Inline { len, slots } => &slots[..*len as usize],
            Entries::Heap(v) => v,
        }
    }

    /// Appends an entry. Callers guarantee room (the view is bounded by
    /// its capacity, and inline storage exists only for capacities at
    /// most [`INLINE_VIEW`]).
    fn push(&mut self, peer: NodeIdx) {
        match self {
            Entries::Inline { len, slots } => {
                slots[*len as usize] = peer;
                *len += 1;
            }
            Entries::Heap(v) => v.push(peer),
        }
    }

    /// Order-preserving removal of the first slot, like
    /// `Vec::remove(0)`.
    fn remove_first(&mut self) {
        match self {
            Entries::Inline { len, slots } => {
                slots.copy_within(1..*len as usize, 0);
                *len -= 1;
            }
            Entries::Heap(v) => {
                v.remove(0);
            }
        }
    }

    /// Order-preserving filter, like `Vec::retain`.
    fn retain(&mut self, mut keep: impl FnMut(NodeIdx) -> bool) {
        match self {
            Entries::Inline { len, slots } => {
                let mut kept = 0usize;
                for i in 0..*len as usize {
                    if keep(slots[i]) {
                        slots[kept] = slots[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Entries::Heap(v) => v.retain(|&p| keep(p)),
        }
    }

    fn clear(&mut self) {
        match self {
            Entries::Inline { len, .. } => *len = 0,
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
        if peer == self.owner || self.contains(peer) {
            return false;
        }
        if self.len() == self.capacity {
            self.entries.remove_first();
        }
        self.entries.push(peer);
        true
    }

    /// Draws up to `k` distinct neighbors into `out` (cleared first),
    /// excluding `exclude` when an alternative exists. A partial
    /// Fisher–Yates over the slot order, so the draw is a pure function
    /// of the RNG stream; engines pass a reused scratch vector so
    /// steady-state shuffles and walk steps allocate nothing.
    pub fn sample_into<R: Rng + ?Sized>(
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
    use rand::SeedableRng;

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
}
