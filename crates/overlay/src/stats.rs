//! Graph statistics: connectivity, BFS distances, degree distributions.

use std::collections::VecDeque;

use crate::topology::{NodeIdx, Topology};

/// Returns `true` if the topology is connected (or empty).
pub fn is_connected(topo: &Topology) -> bool {
    components(topo).iter().all(|&c| c == 0)
}

/// Breadth-first hop distances from `source`; `None` for unreachable nodes.
pub fn bfs_distances(topo: &Topology, source: NodeIdx) -> Vec<Option<u32>> {
    let mut dist: Vec<Option<u32>> = vec![None; topo.len()];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back((source, 0));
    while let Some((v, dv)) = queue.pop_front() {
        for &w in topo.neighbors(v) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(dv + 1);
                queue.push_back((w, dv + 1));
            }
        }
    }
    dist
}

/// Connected components as a label per node (labels are dense, starting
/// at 0, in discovery order).
pub fn components(topo: &Topology) -> Vec<u32> {
    // Every node is labelled by the time the outer loop passes it, so
    // no `UNLABELED` is left in what is returned.
    const UNLABELED: u32 = u32::MAX;
    let mut label = vec![UNLABELED; topo.len()];
    let mut next = 0u32;
    for start in topo.iter_nodes() {
        if label[start.index()] != UNLABELED {
            continue;
        }
        let mut queue = VecDeque::new();
        label[start.index()] = next;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in topo.neighbors(v) {
                if label[w.index()] == UNLABELED {
                    label[w.index()] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    label
}

/// Histogram of node degrees: `hist[d]` = number of nodes with degree `d`.
pub fn degree_histogram(topo: &Topology) -> Vec<usize> {
    let max = topo.iter_nodes().map(|v| topo.degree(v)).max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for v in topo.iter_nodes() {
        hist[topo.degree(v)] += 1;
    }
    hist
}

/// Mean node degree.
pub fn mean_degree(topo: &Topology) -> f64 {
    if topo.is_empty() {
        return 0.0;
    }
    2.0 * topo.edge_count() as f64 / topo.len() as f64
}

/// Estimates the diameter by running BFS from `samples` pseudo-random
/// seeds (deterministic: node `k·stride`). A lower bound on the true
/// diameter; exact when `samples >= n`.
pub fn estimate_diameter(topo: &Topology, samples: usize) -> u32 {
    if topo.is_empty() {
        return 0;
    }
    let n = topo.len();
    let samples = samples.clamp(1, n);
    let stride = (n / samples).max(1);
    let mut best = 0;
    for k in 0..samples {
        let src = NodeIdx::new(((k * stride) % n) as u32);
        let ecc = bfs_distances(topo, src)
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0);
        best = best.max(ecc);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(23)
    }

    #[test]
    fn line_distances_are_linear() {
        let t = generators::line(6, &mut rng()).unwrap();
        let d = bfs_distances(&t, NodeIdx::new(0));
        for (i, di) in d.iter().enumerate() {
            assert_eq!(*di, Some(i as u32));
        }
    }

    #[test]
    fn connectivity_detects_split_graphs() {
        let t = generators::ring(5, &mut rng()).unwrap();
        assert!(is_connected(&t));
        // Build a two-component graph by hand.
        let mut b = crate::TopologyBuilder::with_random_ids(4, &mut rng());
        b.add_edge(NodeIdx::new(0), NodeIdx::new(1));
        b.add_edge(NodeIdx::new(2), NodeIdx::new(3));
        let t2 = b.build();
        assert!(!is_connected(&t2));
        let labels = components(&t2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let t = generators::star(9, &mut rng()).unwrap();
        let h = degree_histogram(&t);
        assert_eq!(h.iter().sum::<usize>(), 9);
        assert_eq!(h[1], 8);
        assert_eq!(h[8], 1);
    }

    #[test]
    fn mean_degree_of_ring_is_two() {
        let t = generators::ring(10, &mut rng()).unwrap();
        assert!((mean_degree(&t) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_of_line() {
        let t = generators::line(8, &mut rng()).unwrap();
        assert_eq!(estimate_diameter(&t, 8), 7);
    }

    #[test]
    fn empty_topology_edge_cases() {
        let b = crate::TopologyBuilder::new(vec![]);
        let t = b.build();
        assert!(is_connected(&t));
        assert_eq!(mean_degree(&t), 0.0);
        assert_eq!(estimate_diameter(&t, 3), 0);
    }
}
