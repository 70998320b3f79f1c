//! Bounded partial views with age-based swap maintenance.
//!
//! Each node knows a small random sample of the overlay — its
//! [`PartialView`] — kept fresh by Cyclon-style push-pull shuffles: the
//! oldest neighbor is contacted, a few entries (initiator included, age
//! zero) are swapped, and on overflow the entries just handed to the
//! peer are evicted first, so the exchange is a swap rather than a
//! broadcast. The two invariants every operation preserves — **no
//! self-entry, no duplicates, never over capacity** — are what the
//! property suite in `tests/properties.rs` hammers under churn.

use mpil_overlay::NodeIdx;
use rand::Rng;

/// One view slot: a peer and the number of shuffle rounds since it was
/// last known fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEntry {
    /// The neighbor.
    pub peer: NodeIdx,
    /// Shuffle rounds since this entry was last refreshed.
    pub age: u32,
}

/// Views at or below this capacity store their entries inline.
///
/// The benchmark configurations all run `view = 8`, and an 8-slot entry
/// array is exactly one cache line — inlining it into [`PartialView`]
/// means a shuffle touches one line of the views table instead of
/// chasing a per-node heap `Vec`. Million-view tables also drop the
/// per-view allocation entirely.
const INLINE_VIEW: usize = 8;

/// Entry storage: inline slots for small capacities, a heap `Vec`
/// beyond [`INLINE_VIEW`]. The variant is fixed at construction from
/// the view's capacity and never changes. Every mutation preserves slot
/// order exactly as the `Vec` operations it replaces (order feeds the
/// deterministic sampling), which the differential property tests in
/// `tests/properties.rs` check against the invariants.
#[derive(Debug, Clone)]
enum Entries {
    Inline {
        len: u8,
        slots: [ViewEntry; INLINE_VIEW],
    },
    Heap(Vec<ViewEntry>),
}

impl Entries {
    fn new(capacity: usize) -> Self {
        if capacity <= INLINE_VIEW {
            Entries::Inline {
                len: 0,
                slots: [ViewEntry {
                    peer: NodeIdx::new(0),
                    age: 0,
                }; INLINE_VIEW],
            }
        } else {
            Entries::Heap(Vec::with_capacity(capacity))
        }
    }

    fn as_slice(&self) -> &[ViewEntry] {
        match self {
            Entries::Inline { len, slots } => &slots[..*len as usize],
            Entries::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [ViewEntry] {
        match self {
            Entries::Inline { len, slots } => &mut slots[..*len as usize],
            Entries::Heap(v) => v,
        }
    }

    /// Appends an entry. Callers guarantee room (the view is bounded by
    /// its capacity, and inline storage exists only for capacities at
    /// most [`INLINE_VIEW`]).
    fn push(&mut self, e: ViewEntry) {
        match self {
            Entries::Inline { len, slots } => {
                slots[*len as usize] = e;
                *len += 1;
            }
            Entries::Heap(v) => v.push(e),
        }
    }

    /// Order-preserving removal of slot `i`, like `Vec::remove`.
    fn remove(&mut self, i: usize) {
        match self {
            Entries::Inline { len, slots } => {
                let l = *len as usize;
                slots.copy_within(i + 1..l, i);
                *len -= 1;
            }
            Entries::Heap(v) => {
                v.remove(i);
            }
        }
    }

    /// Order-preserving filter, like `Vec::retain`.
    fn retain(&mut self, mut keep: impl FnMut(&ViewEntry) -> bool) {
        match self {
            Entries::Inline { len, slots } => {
                let mut kept = 0usize;
                for i in 0..*len as usize {
                    if keep(&slots[i]) {
                        slots[kept] = slots[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Entries::Heap(v) => v.retain(keep),
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

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
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
        self.entries.as_slice().iter().any(|e| e.peer == peer)
    }

    /// The neighbors, in slot order.
    pub fn peers(&self) -> Vec<NodeIdx> {
        self.entries.as_slice().iter().map(|e| e.peer).collect()
    }

    /// Iterates the entries (tests, diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &ViewEntry> {
        self.entries.as_slice().iter()
    }

    /// Ages every entry by one shuffle round.
    pub fn age_all(&mut self) {
        for e in self.entries.as_mut_slice() {
            e.age = e.age.saturating_add(1);
        }
    }

    /// The oldest neighbor (ties broken by the later slot), if any.
    pub fn oldest(&self) -> Option<NodeIdx> {
        self.entries
            .as_slice()
            .iter()
            .max_by_key(|e| e.age)
            .map(|e| e.peer)
    }

    /// Removes `peer`; returns whether it was present.
    pub fn remove(&mut self, peer: NodeIdx) -> bool {
        let before = self.entries.as_slice().len();
        self.entries.retain(|e| e.peer != peer);
        self.entries.as_slice().len() != before
    }

    /// Drops every entry (re-join support).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Inserts `peer` fresh (age 0) if it is not the owner and not
    /// already present; on overflow the oldest entry is evicted.
    /// Returns whether the view changed.
    pub fn insert_fresh(&mut self, peer: NodeIdx) -> bool {
        if peer == self.owner {
            return false;
        }
        if let Some(e) = self
            .entries
            .as_mut_slice()
            .iter_mut()
            .find(|e| e.peer == peer)
        {
            e.age = 0;
            return false;
        }
        if self.entries.as_slice().len() == self.capacity {
            let victim = self
                .entries
                .as_slice()
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.age)
                .map(|(i, _)| i)
                .expect("full view is non-empty");
            self.entries.remove(victim);
        }
        self.entries.push(ViewEntry { peer, age: 0 });
        true
    }

    /// Merges the entries received in a shuffle. `sent` is what this
    /// node handed to the peer in the same exchange: on overflow those
    /// slots are sacrificed first (the swap), then the oldest.
    ///
    /// Both arguments are borrowed slices so the engine can pass its
    /// scratch draw and the message's pooled payload buffer directly —
    /// a merge never requires materializing (or cloning) a `Vec`.
    pub fn merge(&mut self, received: &[NodeIdx], sent: &[NodeIdx]) {
        for &peer in received {
            if peer == self.owner {
                continue;
            }
            if let Some(e) = self
                .entries
                .as_mut_slice()
                .iter_mut()
                .find(|e| e.peer == peer)
            {
                e.age = 0;
                continue;
            }
            if self.entries.as_slice().len() == self.capacity {
                let victim = self
                    .entries
                    .as_slice()
                    .iter()
                    .position(|e| sent.contains(&e.peer))
                    .unwrap_or_else(|| {
                        self.entries
                            .as_slice()
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, e)| e.age)
                            .map(|(i, _)| i)
                            .expect("full view is non-empty")
                    });
                self.entries.remove(victim);
            }
            self.entries.push(ViewEntry { peer, age: 0 });
        }
    }

    /// Draws up to `k` distinct neighbors, excluding `exclude` when an
    /// alternative exists (partial Fisher–Yates over a scratch list, so
    /// the draw order is a pure function of the RNG stream).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        k: usize,
        exclude: Option<NodeIdx>,
        rng: &mut R,
    ) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        self.sample_into(k, exclude, rng, &mut out);
        out
    }

    /// [`Self::sample`] into a caller-owned buffer: `out` is cleared,
    /// then filled with the draw. Engines pass a per-node scratch vector
    /// so steady-state shuffles and walk fan-outs allocate nothing. The
    /// pool order and RNG consumption are identical to `sample`, so
    /// seeded runs cannot tell the two apart.
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
            Some(x) if entries.len() > 1 => {
                out.extend(entries.iter().map(|e| e.peer).filter(|&p| p != x))
            }
            _ => out.extend(entries.iter().map(|e| e.peer)),
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
        for (i, e) in entries.iter().enumerate() {
            assert!(e.peer != self.owner, "{} contains itself", self.owner);
            assert!(
                !entries[i + 1..].iter().any(|o| o.peer == e.peer),
                "{} contains {} twice",
                self.owner,
                e.peer
            );
        }
    }
}

/// Builds the converged membership state a long-running gossip overlay
/// settles into: every node holds `view_size` distinct uniformly random
/// peers (Cyclon converges to exactly this regime — in-degree
/// concentrates around the out-degree and views are near-uniform
/// samples). Deterministic in `rng`.
pub fn build_converged_views<R: Rng + ?Sized>(
    n: usize,
    view_size: usize,
    rng: &mut R,
) -> Vec<PartialView> {
    assert!(view_size >= 1, "view_size must be at least 1");
    let mut views = Vec::with_capacity(n);
    for i in 0..n {
        let owner = NodeIdx::new(i as u32);
        let mut view = PartialView::new(owner, view_size);
        let want = view_size.min(n.saturating_sub(1));
        while view.len() < want {
            let peer = NodeIdx::new(rng.gen_range(0..n as u32));
            if peer != owner && !view.contains(peer) {
                view.insert_fresh(peer);
            }
        }
        views.push(view);
    }
    views
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
        assert!(!v.insert_fresh(node(0)));
        assert!(v.insert_fresh(node(1)));
        assert!(!v.insert_fresh(node(1)));
        assert_eq!(v.len(), 1);
        v.assert_invariants();
    }

    #[test]
    fn overflow_evicts_the_oldest() {
        let mut v = PartialView::new(node(0), 2);
        v.insert_fresh(node(1));
        v.age_all();
        v.insert_fresh(node(2));
        v.insert_fresh(node(3));
        assert_eq!(v.len(), 2);
        assert!(!v.contains(node(1)), "oldest should be gone");
        assert!(v.contains(node(2)) && v.contains(node(3)));
        v.assert_invariants();
    }

    #[test]
    fn merge_prefers_evicting_sent_slots() {
        let mut v = PartialView::new(node(0), 3);
        for p in [1, 2, 3] {
            v.insert_fresh(node(p));
        }
        v.merge(&[node(4), node(5)], &[node(1), node(2)]);
        assert_eq!(v.len(), 3);
        assert!(v.contains(node(3)), "unsent slot survives the swap");
        assert!(v.contains(node(4)) && v.contains(node(5)));
        v.assert_invariants();
    }

    #[test]
    fn merge_refreshes_known_peers_without_duplicating() {
        let mut v = PartialView::new(node(0), 3);
        v.insert_fresh(node(1));
        v.age_all();
        v.merge(&[node(1), node(0)], &[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.iter().next().expect("one entry").age, 0);
        v.assert_invariants();
    }

    #[test]
    fn oldest_tracks_ages() {
        let mut v = PartialView::new(node(0), 3);
        v.insert_fresh(node(1));
        v.age_all();
        v.insert_fresh(node(2));
        assert_eq!(v.oldest(), Some(node(1)));
        assert!(v.remove(node(1)));
        assert_eq!(v.oldest(), Some(node(2)));
        assert!(!v.remove(node(9)));
    }

    #[test]
    fn sample_is_distinct_and_respects_exclusion() {
        let mut v = PartialView::new(node(0), 8);
        for p in 1..=8 {
            v.insert_fresh(node(p));
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let s = v.sample(5, Some(node(3)), &mut rng);
            assert_eq!(s.len(), 5);
            assert!(!s.contains(&node(3)));
            let set: fxhash::FxHashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 5, "sample must be distinct");
        }
        // With a single entry the exclusion is waived rather than
        // returning nothing.
        let mut lone = PartialView::new(node(0), 2);
        lone.insert_fresh(node(1));
        assert_eq!(lone.sample(1, Some(node(1)), &mut rng), [node(1)]);
    }

    #[test]
    fn converged_views_satisfy_invariants() {
        let mut rng = SmallRng::seed_from_u64(3);
        let views = build_converged_views(64, 6, &mut rng);
        assert_eq!(views.len(), 64);
        for v in &views {
            assert_eq!(v.len(), 6);
            v.assert_invariants();
        }
    }

    #[test]
    fn converged_views_cap_at_population() {
        let mut rng = SmallRng::seed_from_u64(4);
        let views = build_converged_views(3, 8, &mut rng);
        for v in &views {
            assert_eq!(v.len(), 2, "only n-1 candidates exist");
            v.assert_invariants();
        }
        let lone = build_converged_views(1, 8, &mut rng);
        assert!(lone[0].is_empty());
    }
}
