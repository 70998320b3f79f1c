//! Property-based tests for topology generators and graph algorithms.

use std::collections::BTreeSet;

use mpil_overlay::{generators, stats, Adjacency, NodeIdx, TopologyBuilder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A simple edge set on `n` nodes from raw pairs: endpoints taken mod
/// `n`, self-loops and repeats (in either direction) dropped, first
/// occurrences kept in the order drawn.
fn simple_edges(n: usize, raw: &[(u32, u32)]) -> Vec<(NodeIdx, NodeIdx)> {
    let mut seen = BTreeSet::new();
    raw.iter()
        .map(|&(a, b)| (a % n as u32, b % n as u32))
        .filter(|&(a, b)| a != b && seen.insert((a.min(b), a.max(b))))
        .map(|(a, b)| (NodeIdx::new(a), NodeIdx::new(b)))
        .collect()
}

/// The per-node lists the one array must equal: a `Vec` per node,
/// each edge pushed to both ends, each list sorted.
fn naive_lists(n: usize, edges: &[(NodeIdx, NodeIdx)]) -> Vec<Vec<NodeIdx>> {
    let mut lists = vec![Vec::new(); n];
    for &(a, b) in edges {
        lists[a.index()].push(b);
        lists[b.index()].push(a);
    }
    for list in &mut lists {
        list.sort_unstable();
    }
    lists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adjacency_from_edges_is_the_sorted_symmetric_lists(
        n in 1usize..=200,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..800),
    ) {
        let edges = simple_edges(n, &raw);
        let adj = Adjacency::from_edges(n, edges.iter().copied());
        prop_assert_eq!(adj.len(), n);
        prop_assert_eq!(adj.offsets().len(), n + 1);
        prop_assert_eq!(adj.offsets()[0], 0);
        prop_assert!(adj.offsets().windows(2).all(|w| w[0] <= w[1]), "offsets decrease");
        prop_assert_eq!(adj.offsets()[n] as usize, adj.entries());
        prop_assert_eq!(adj.entries(), 2 * edges.len());
        for a in 0..n as u32 {
            let a = NodeIdx::new(a);
            let list = adj.neighbors(a);
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "{a}'s list is unsorted");
            for &b in list {
                prop_assert!(adj.neighbors(b).contains(&a), "{a} lists {b}, not back");
            }
        }
        let lists: Vec<Vec<NodeIdx>> = adj.iter().map(<[_]>::to_vec).collect();
        prop_assert_eq!(lists, naive_lists(n, &edges));
    }

    #[test]
    fn adjacency_from_directed_lists_keeps_their_order(
        raw in prop::collection::vec(prop::collection::vec(0u32..60, 0..12), 0..60),
    ) {
        let lists: Vec<Vec<NodeIdx>> = raw
            .iter()
            .map(|list| list.iter().copied().map(NodeIdx::new).collect())
            .collect();
        let adj = Adjacency::from(lists.clone());
        prop_assert_eq!(adj.len(), lists.len());
        prop_assert_eq!(adj.entries(), lists.iter().map(Vec::len).sum::<usize>());
        for (i, list) in lists.iter().enumerate() {
            prop_assert_eq!(adj.neighbors(NodeIdx::new(i as u32)), list.as_slice());
        }
    }

    #[test]
    fn regular_graphs_have_exact_degrees(
        n in 8usize..200,
        d in 2usize..8,
        seed in any::<u64>(),
    ) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = generators::random_regular(n, d, &mut rng).unwrap();
        prop_assert_eq!(t.len(), n);
        for v in t.iter_nodes() {
            prop_assert_eq!(t.degree(v), d);
        }
        prop_assert_eq!(t.edge_count(), n * d / 2);
    }

    #[test]
    fn regular_graphs_are_simple(
        n in 8usize..100,
        d in 2usize..6,
        seed in any::<u64>(),
    ) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = generators::random_regular(n, d, &mut rng).unwrap();
        for v in t.iter_nodes() {
            let nbrs = t.neighbors(v);
            prop_assert!(!nbrs.contains(&v), "self-loop at {v}");
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "dup edge at {v}");
        }
    }

    #[test]
    fn power_law_graphs_are_connected(
        n in 8usize..300,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = generators::power_law(n, Default::default(), &mut rng).unwrap();
        prop_assert!(stats::is_connected(&t));
        prop_assert_eq!(t.len(), n);
    }

    #[test]
    fn bfs_distances_satisfy_edge_lipschitz(
        n in 4usize..80,
        seed in any::<u64>(),
    ) {
        // Adjacent nodes' BFS distances differ by at most 1.
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = generators::power_law(n.max(8), Default::default(), &mut rng).unwrap();
        let dist = stats::bfs_distances(&t, NodeIdx::new(0));
        for (a, b) in t.iter_edges() {
            let da = dist[a.index()].expect("connected");
            let db = dist[b.index()].expect("connected");
            prop_assert!(da.abs_diff(db) <= 1, "edge ({a},{b}): {da} vs {db}");
        }
    }

    #[test]
    fn components_partition_the_graph(
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..60),
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = TopologyBuilder::with_random_ids(30, &mut rng);
        for (x, y) in edges {
            b.add_edge(NodeIdx::new(x), NodeIdx::new(y));
        }
        let t = b.build();
        let labels = stats::components(&t);
        prop_assert_eq!(labels.len(), 30);
        // Neighbors share a component.
        for (a, c) in t.iter_edges() {
            prop_assert_eq!(labels[a.index()], labels[c.index()]);
        }
        // Labels are dense starting at 0.
        let max = labels.iter().copied().max().unwrap();
        for l in 0..=max {
            prop_assert!(labels.contains(&l), "gap at label {l}");
        }
    }

    #[test]
    fn degree_histogram_is_consistent(
        n in 2usize..60,
        p in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = generators::erdos_renyi(n, p, &mut rng).unwrap();
        let hist = stats::degree_histogram(&t);
        prop_assert_eq!(hist.iter().sum::<usize>(), n);
        let total_degree: usize = hist.iter().enumerate().map(|(d, &c)| d * c).sum();
        prop_assert_eq!(total_degree, 2 * t.edge_count());
        let mean = stats::mean_degree(&t);
        prop_assert!((mean - total_degree as f64 / n as f64).abs() < 1e-9);
    }

    #[test]
    fn transit_stub_latency_is_a_metric_sample(
        hosts in 2usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = mpil_overlay::transit_stub::generate(hosts, &mut rng)
            .unwrap();
        for a in 0..hosts.min(8) {
            for b in 0..hosts.min(8) {
                let ab = ts.latency_us(NodeIdx::new(a as u32), NodeIdx::new(b as u32));
                let ba = ts.latency_us(NodeIdx::new(b as u32), NodeIdx::new(a as u32));
                prop_assert_eq!(ab, ba, "symmetry");
                if a == b {
                    prop_assert_eq!(ab, 0);
                } else {
                    prop_assert!(ab > 0);
                    prop_assert!(ab < u32::MAX);
                }
            }
        }
    }
}
