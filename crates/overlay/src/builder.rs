//! Incremental construction of [`Topology`] values.

use fxhash::FxHashSet;

use mpil_id::Id;
use rand::Rng;

use crate::adjacency::Adjacency;
use crate::topology::{NodeIdx, Topology};

/// Builds a [`Topology`] edge by edge.
///
/// Self-loops are ignored and duplicate edges are deduplicated, so
/// generators can be written without worrying about either.
///
/// ```
/// use mpil_overlay::{NodeIdx, TopologyBuilder};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut b = TopologyBuilder::with_random_ids(2, &mut rng);
/// b.add_edge(NodeIdx::new(0), NodeIdx::new(1));
/// b.add_edge(NodeIdx::new(1), NodeIdx::new(0)); // duplicate, ignored
/// let topo = b.build();
/// assert_eq!(topo.edge_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    ids: Vec<Id>,
    edges: FxHashSet<(NodeIdx, NodeIdx)>,
}

impl TopologyBuilder {
    /// Creates a builder for `n` nodes with the given IDs.
    ///
    /// # Panics
    ///
    /// Panics if the IDs are not unique.
    pub fn new(ids: Vec<Id>) -> Self {
        let unique: FxHashSet<_> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "node IDs must be unique");
        TopologyBuilder {
            ids,
            edges: FxHashSet::default(),
        }
    }

    /// Creates a builder for `n` nodes with distinct uniformly random IDs.
    pub fn with_random_ids<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        TopologyBuilder {
            ids: random_ids(n, rng),
            edges: FxHashSet::default(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the builder has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of (deduplicated) edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Makes room for `edges` more edges, so a generator that knows its
    /// edge count up front does not rehash as it adds them.
    pub(crate) fn reserve(&mut self, edges: usize) {
        self.edges.reserve(edges);
    }

    /// Adds the undirected edge `{a, b}`. Self-loops and duplicates are
    /// ignored. Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeIdx, b: NodeIdx) -> bool {
        assert!(a.index() < self.ids.len(), "node {a} out of range");
        assert!(b.index() < self.ids.len(), "node {b} out of range");
        if a == b {
            return false;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        self.edges.insert(key)
    }

    /// Finalizes the graph, producing sorted adjacency lists.
    pub fn build(self) -> Topology {
        #[expect(
            clippy::disallowed_methods,
            reason = "D003: Adjacency::from_edges sorts every list it fills"
        )]
        let edges = self.edges.iter().copied();
        let adj = Adjacency::from_edges(self.ids.len(), edges);
        Topology::from_parts(self.ids, adj)
    }
}

/// `n` distinct uniformly random IDs: the one draw every overlay, DHT
/// membership and generator takes its node ids from.
pub fn random_ids<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Id> {
    let mut seen = FxHashSet::with_capacity_and_hasher(n, Default::default());
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = Id::random(rng);
        // 160-bit collisions are astronomically unlikely, but the
        // uniqueness invariant is cheap to enforce.
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn self_loops_are_ignored() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut b = TopologyBuilder::with_random_ids(2, &mut rng);
        assert!(!b.add_edge(NodeIdx::new(0), NodeIdx::new(0)));
        assert_eq!(b.edge_count(), 0);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut b = TopologyBuilder::with_random_ids(3, &mut rng);
        assert!(b.add_edge(NodeIdx::new(0), NodeIdx::new(1)));
        assert!(!b.add_edge(NodeIdx::new(1), NodeIdx::new(0)));
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut b = TopologyBuilder::with_random_ids(2, &mut rng);
        b.add_edge(NodeIdx::new(0), NodeIdx::new(9));
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_ids_panic() {
        let id = Id::from_low_u64(1);
        TopologyBuilder::new(vec![id, id]);
    }

    #[test]
    fn random_ids_are_unique() {
        let mut rng = SmallRng::seed_from_u64(0);
        let b = TopologyBuilder::with_random_ids(256, &mut rng);
        assert_eq!(b.len(), 256);
        let t = b.build();
        let set: FxHashSet<_> = t.ids().iter().collect();
        assert_eq!(set.len(), 256);
    }
}
