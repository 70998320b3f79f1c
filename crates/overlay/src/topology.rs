//! The [`Topology`] graph type and [`NodeIdx`] handle.

use std::fmt;

use mpil_id::Id;

use crate::adjacency::Adjacency;

/// A handle to a node (vertex) of a [`Topology`].
///
/// Node indices are dense: a topology with `n` nodes uses indices
/// `0..n`. The newtype keeps overlay indices from being confused with
/// other integers (hop counts, degrees, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeIdx(u32);

impl NodeIdx {
    /// Creates a node index.
    pub const fn new(i: u32) -> Self {
        NodeIdx(i)
    }

    /// The underlying dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeIdx {
    fn from(i: u32) -> Self {
        NodeIdx(i)
    }
}

/// An undirected overlay graph whose vertices carry 160-bit IDs.
///
/// The neighbour lists are one [`Adjacency`] array, each list sorted and
/// free of duplicates and self-loops. The graph is immutable once built
/// (use [`TopologyBuilder`](crate::TopologyBuilder) or a
/// [generator](crate::generators)), which lets simulations share it
/// freely across threads; an engine that owns its graph takes the array
/// itself by move ([`Topology::into_parts`]), so one array runs from the
/// generator to the engine.
#[derive(Debug, Clone)]
pub struct Topology {
    ids: Vec<Id>,
    adj: Adjacency,
}

impl Topology {
    pub(crate) fn from_parts(ids: Vec<Id>, adj: Adjacency) -> Self {
        debug_assert_eq!(ids.len(), adj.len());
        Topology { ids, adj }
    }

    /// The ids and the neighbour lists, as the simulated MPIL engine
    /// (`mpil::Mpil`) and the live cluster take them.
    pub fn into_parts(self) -> (Vec<Id>, Adjacency) {
        (self.ids, self.adj)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.entries() / 2
    }

    /// The 160-bit identifier of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn id(&self, node: NodeIdx) -> Id {
        self.ids[node.index()]
    }

    /// All node IDs, indexed by [`NodeIdx`].
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// The sorted neighbor list of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn neighbors(&self, node: NodeIdx) -> &[NodeIdx] {
        self.adj.neighbors(node)
    }

    /// The degree (number of neighbors) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn degree(&self, node: NodeIdx) -> usize {
        self.adj.neighbors(node).len()
    }

    /// Returns `true` if `a` and `b` are adjacent.
    pub fn contains_edge(&self, a: NodeIdx, b: NodeIdx) -> bool {
        self.adj.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates over all node handles `0..len`.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        (0..self.ids.len() as u32).map(NodeIdx::new)
    }

    /// Iterates over each undirected edge once, as `(a, b)` with `a < b`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeIdx, NodeIdx)> + '_ {
        self.iter_nodes().flat_map(move |a| {
            self.adj
                .neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn triangle() -> Topology {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = TopologyBuilder::with_random_ids(3, &mut rng);
        b.add_edge(NodeIdx::new(0), NodeIdx::new(1));
        b.add_edge(NodeIdx::new(1), NodeIdx::new(2));
        b.add_edge(NodeIdx::new(2), NodeIdx::new(0));
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let t = triangle();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.edge_count(), 3);
        for n in t.iter_nodes() {
            assert_eq!(t.degree(n), 2);
        }
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let t = triangle();
        for a in t.iter_nodes() {
            let nbrs = t.neighbors(a);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            for &b in nbrs {
                assert!(t.contains_edge(b, a));
            }
        }
    }

    #[test]
    fn iter_edges_yields_each_edge_once() {
        let t = triangle();
        let edges: Vec<_> = t.iter_edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn find_id_locates_nodes() {
        let t = triangle();
        let find = |id| t.iter_nodes().find(|&n| t.id(n) == id);
        assert_eq!(find(t.id(NodeIdx::new(1))), Some(NodeIdx::new(1)));
        assert_eq!(find(mpil_id::Id::MAX), None);
    }

    #[test]
    fn node_idx_display_and_conversion() {
        let n = NodeIdx::new(7);
        assert_eq!(n.to_string(), "n7");
        assert_eq!(NodeIdx::from(7u32), n);
        assert_eq!(n.index(), 7);
    }
}
