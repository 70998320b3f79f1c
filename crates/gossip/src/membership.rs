//! HyParView membership state: one small symmetric *active* view and
//! one larger *passive* view per node.
//!
//! The active view carries all protocol traffic (Plumtree eager/lazy
//! links are subsets of it) and is repaired *reactively*: an evicted or
//! disconnected active peer is replaced by promoting a passive-view
//! candidate through a NEIGHBOR handshake. The passive view is a cheap
//! reservoir of alive-ish peers refreshed by periodic shuffles. Both
//! views are [`PartialView`]s and inherit its invariants (no self, no
//! duplicates, bounded).

use mpil_overlay::NodeIdx;
use rand::Rng;

use crate::view::PartialView;

/// One node's HyParView membership state.
#[derive(Debug, Clone)]
pub struct Membership {
    /// The symmetric active view (protocol links).
    pub active: PartialView,
    /// The passive view (reactive-replacement candidates).
    pub passive: PartialView,
}

impl Membership {
    /// Empty views for `owner` with the given bounds.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(owner: NodeIdx, active_size: usize, passive_size: usize) -> Self {
        Membership {
            active: PartialView::new(owner, active_size),
            passive: PartialView::new(owner, passive_size),
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeIdx {
        self.active.owner()
    }

    /// Checks both views' structural invariants plus the HyParView
    /// cross-view invariant: no peer is listed in both views.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn assert_invariants(&self) {
        self.active.assert_invariants();
        self.passive.assert_invariants();
        for peer in self.active.iter() {
            assert!(
                !self.passive.contains(peer),
                "{} lists {} in both views",
                self.owner(),
                peer
            );
        }
    }
}

/// Builds the converged membership state a long-running HyParView
/// overlay settles into: a connected symmetric active graph (a ring
/// base guarantees connectivity, random symmetric links fill the views
/// up to their bound) and uniformly random passive views disjoint from
/// the active ones. Deterministic in `rng`.
///
/// # Panics
///
/// Panics if `active_size` or `passive_size` is zero.
pub fn build_converged_membership<R: Rng + ?Sized>(
    n: usize,
    active_size: usize,
    passive_size: usize,
    rng: &mut R,
) -> Vec<Membership> {
    assert!(active_size >= 1, "active_size must be at least 1");
    assert!(passive_size >= 1, "passive_size must be at least 1");
    let mut members: Vec<Membership> = (0..n)
        .map(|i| Membership::new(NodeIdx::new(i as u32), active_size, passive_size))
        .collect();
    if n >= 2 {
        // Ring base: i <-> i+1 keeps the eager-push graph connected even
        // if the random fill below leaves some views underfull.
        for i in 0..n {
            let j = (i + 1) % n;
            if i == j {
                continue;
            }
            members[i].active.insert(NodeIdx::new(j as u32));
            members[j].active.insert(NodeIdx::new(i as u32));
        }
        // Random symmetric fill: both endpoints must have room, so no
        // eviction ever runs and symmetry is preserved by construction.
        for i in 0..n {
            let mut tries = 0;
            while members[i].active.len() < active_size.min(n - 1) && tries < 64 {
                tries += 1;
                let j = rng.gen_range(0..n as u32) as usize;
                if j == i
                    || members[i].active.contains(NodeIdx::new(j as u32))
                    || members[j].active.len() >= active_size
                {
                    continue;
                }
                members[i].active.insert(NodeIdx::new(j as u32));
                members[j].active.insert(NodeIdx::new(i as u32));
            }
        }
    }
    // Passive views: uniform random, disjoint from the active view.
    for (i, member) in members.iter_mut().enumerate() {
        let want = passive_size.min(n.saturating_sub(1 + member.active.len()));
        let mut tries = 0;
        while member.passive.len() < want && tries < 64 * passive_size {
            tries += 1;
            let peer = NodeIdx::new(rng.gen_range(0..n as u32));
            if peer.index() != i && !member.active.contains(peer) && !member.passive.contains(peer)
            {
                member.passive.insert(peer);
            }
        }
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn converged_membership_is_symmetric_and_legal() {
        let mut rng = SmallRng::seed_from_u64(5);
        let members = build_converged_membership(200, 5, 24, &mut rng);
        assert_eq!(members.len(), 200);
        for (i, m) in members.iter().enumerate() {
            m.assert_invariants();
            assert!(m.active.len() >= 2, "ring base guarantees degree 2");
            assert!(m.active.len() <= 5);
            for peer in m.active.iter() {
                assert!(
                    members[peer.index()]
                        .active
                        .contains(NodeIdx::new(i as u32)),
                    "active link {i} -> {peer} is not symmetric"
                );
            }
        }
    }

    #[test]
    fn tiny_populations_stay_legal() {
        let mut rng = SmallRng::seed_from_u64(6);
        for n in [1usize, 2, 3, 5] {
            let members = build_converged_membership(n, 5, 24, &mut rng);
            for m in &members {
                m.assert_invariants();
                assert!(m.active.len() <= n.saturating_sub(1));
            }
        }
    }

    #[test]
    fn passive_views_fill_from_the_remainder() {
        let mut rng = SmallRng::seed_from_u64(7);
        let members = build_converged_membership(500, 5, 24, &mut rng);
        for m in &members {
            assert!(
                m.passive.len() >= 20,
                "passive view underfull: {}",
                m.passive.len()
            );
        }
    }
}
