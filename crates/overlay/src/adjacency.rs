//! The [`Adjacency`] array: every node's neighbour list in one
//! allocation.

use crate::topology::NodeIdx;

/// Every node's neighbour list in compressed sparse row (CSR) form:
/// node `i`'s neighbours are `adjacent[offsets[i]..offsets[i + 1]]`, so
/// the whole graph is two allocations instead of one per node.
///
/// A [`Topology`](crate::Topology) stores one, built from its edges
/// with each list sorted; an engine takes it by move
/// ([`Topology::into_parts`](crate::Topology::into_parts)). Directed
/// lists in an order of their own (a DHT's routing state frozen as a
/// graph) come in through `From<Vec<Vec<NodeIdx>>>`, which keeps them
/// as they are.
///
/// ```
/// use mpil_overlay::{Adjacency, NodeIdx};
///
/// let n = NodeIdx::new;
/// let adj = Adjacency::from_edges(3, [(n(2), n(0)), (n(0), n(1))]);
/// assert_eq!(adj.neighbors(n(0)), [n(1), n(2)]);
/// assert_eq!(adj.entries(), 4);
///
/// let directed = Adjacency::from(vec![vec![n(2), n(1)], vec![], vec![n(0)]]);
/// assert_eq!(directed.neighbors(n(0)), [n(2), n(1)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    /// `len() + 1` entries, never decreasing; the last is `entries()`.
    offsets: Vec<u32>,
    adjacent: Vec<NodeIdx>,
}

impl Adjacency {
    /// The sorted neighbour lists of the undirected simple graph on
    /// `nodes` nodes with these edges, by counting sort: one pass counts
    /// each node's degree, a second writes each edge into both
    /// endpoints' lists, and each list is then sorted. `edges` is walked
    /// twice, so its order does not matter.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, an edge is a self-loop, or
    /// the lists hold more than `u32::MAX` entries together. Duplicate
    /// edges are not looked for: they must not be there.
    pub fn from_edges<I>(nodes: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeIdx, NodeIdx)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        // Degrees first; then `offsets[i]` is the end of node i's list
        // and counts down to its start as the list is written.
        let mut offsets = vec![0u32; nodes + 1];
        let mut entries = 0usize;
        for (a, b) in edges.clone() {
            assert_ne!(a, b, "self-loop at {a}");
            offsets[a.index()] += 1;
            offsets[b.index()] += 1;
            entries += 2;
        }
        assert!(u32::try_from(entries).is_ok(), "too many neighbor entries");
        let mut end = 0;
        for offset in &mut offsets {
            end += *offset;
            *offset = end;
        }
        let mut adjacent = vec![NodeIdx::default(); entries];
        for (a, b) in edges {
            offsets[a.index()] -= 1;
            adjacent[offsets[a.index()] as usize] = b;
            offsets[b.index()] -= 1;
            adjacent[offsets[b.index()] as usize] = a;
        }
        for w in offsets.windows(2) {
            adjacent[w[0] as usize..w[1] as usize].sort_unstable();
        }
        Adjacency { offsets, adjacent }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of list entries over all nodes: twice the edge count of an
    /// undirected graph, the number of arcs of a directed one.
    pub fn entries(&self) -> usize {
        self.adjacent.len()
    }

    /// `node`'s neighbour list.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn neighbors(&self, node: NodeIdx) -> &[NodeIdx] {
        let i = node.index();
        &self.adjacent[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Where each node's list starts in the one array, and past the last
    /// node where the array ends: `len() + 1` entries.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every node's list, in node order.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeIdx]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.adjacent[w[0] as usize..w[1] as usize])
    }
}

/// Directed lists, each kept in its own order.
impl From<Vec<Vec<NodeIdx>>> for Adjacency {
    /// # Panics
    ///
    /// Panics if the lists hold more than `u32::MAX` entries together
    /// (16 GiB of lists; no flag or frame builds a graph that large).
    fn from(lists: Vec<Vec<NodeIdx>>) -> Self {
        let entries: usize = lists.iter().map(Vec::len).sum();
        assert!(u32::try_from(entries).is_ok(), "too many neighbor entries");
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut adjacent = Vec::with_capacity(entries);
        offsets.push(0);
        for list in lists {
            adjacent.extend_from_slice(&list);
            // At most `entries`, which fits: checked above.
            offsets.push(adjacent.len() as u32);
        }
        Adjacency { offsets, adjacent }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "self-loop")]
    fn a_self_loop_is_refused() {
        Adjacency::from_edges(2, [(NodeIdx::new(1), NodeIdx::new(1))]);
    }

    #[test]
    fn no_nodes_is_one_offset() {
        let adj = Adjacency::from_edges(0, []);
        assert!(adj.is_empty());
        assert_eq!(adj.offsets(), [0]);
        assert_eq!(Adjacency::from(Vec::new()), adj);
    }
}
