//! Random regular graphs.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::adjacency::Adjacency;
use crate::builder::random_ids;
use crate::generators::GenerateError;
use crate::topology::{NodeIdx, Topology};

/// Generates a connected random `d`-regular graph on `n` nodes.
///
/// This realizes the paper's "random graphs \[where\] each node has 100
/// neighbors, equally" (Section 6.1). The construction is the
/// configuration model (uniform stub pairing) followed by edge-swap repair
/// of self-loops and parallel edges, which keeps the distribution close to
/// uniform over simple `d`-regular graphs. Disconnected outcomes (possible
/// only for very small `d`) are retried with fresh randomness.
///
/// A dense graph (`2d ≥ n − 1`) is built as the complement of a random
/// `(n − 1 − d)`-regular pairing instead (the complete graph when
/// `d = n − 1`): pairing `d` stubs per node fails more often than not as
/// `d` nears `n`, and the complement is connected by its degree alone,
/// since any two non-adjacent nodes share a neighbour.
///
/// # Errors
///
/// * [`GenerateError::InfeasibleDegree`] if `d == 0`, `d >= n`, or `n·d`
///   is odd.
/// * [`GenerateError::DidNotConverge`] if repair fails repeatedly
///   (practically unreachable for the sizes the experiments use).
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Topology, GenerateError> {
    if d == 0 {
        return Err(GenerateError::InfeasibleDegree {
            nodes: n,
            degree: d,
            reason: "degree must be positive",
        });
    }
    if d >= n {
        return Err(GenerateError::InfeasibleDegree {
            nodes: n,
            degree: d,
            reason: "degree must be < n",
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GenerateError::InfeasibleDegree {
            nodes: n,
            degree: d,
            reason: "n*d must be even",
        });
    }

    let dense = 2 * d >= n - 1;
    let paired = if dense { n - 1 - d } else { d };
    const MAX_ATTEMPTS: usize = 64;
    for _ in 0..MAX_ATTEMPTS {
        if let Some(edges) = try_pairing(n, paired, rng) {
            let ids = random_ids(n, rng);
            let adjacency = if dense {
                complement(n, &edges)
            } else {
                let edges = edges
                    .iter()
                    .map(|&(a, b)| (NodeIdx::new(a), NodeIdx::new(b)));
                Adjacency::from_edges(n, edges)
            };
            let topo = Topology::from_parts(ids, adjacency);
            if crate::stats::is_connected(&topo) {
                return Ok(topo);
            }
        }
    }
    Err(GenerateError::DidNotConverge {
        generator: "random_regular",
    })
}

/// One configuration-model attempt: pair stubs uniformly, then repair
/// self-loops and parallel edges by degree-preserving edge swaps. Badness
/// is recomputed from scratch each pass, so the swap bookkeeping only has
/// to be conservative, never exact. The edges it returns are simple, so
/// they go into the graph's lists as they are, with no edge set between.
fn try_pairing<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Option<Vec<(u32, u32)>> {
    use fxhash::FxHashSet;

    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for v in 0..n as u32 {
        stubs.extend(std::iter::repeat_n(v, d));
    }
    stubs.shuffle(rng);

    let mut edges: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|c| ord(c[0], c[1])).collect();

    const MAX_PASSES: usize = 100;
    for _ in 0..MAX_PASSES {
        let mut seen: FxHashSet<(u32, u32)> =
            FxHashSet::with_capacity_and_hasher(edges.len(), Default::default());
        let mut bad: Vec<usize> = Vec::new();
        for (i, &e) in edges.iter().enumerate() {
            if e.0 == e.1 || !seen.insert(e) {
                bad.push(i);
            }
        }
        if bad.is_empty() {
            return Some(edges);
        }
        let mut fixed_any = false;
        for &i in &bad {
            for _ in 0..64 {
                let j = rng.gen_range(0..edges.len());
                if j == i {
                    continue;
                }
                let (a, b) = edges[i];
                let (c, d2) = edges[j];
                let e1 = ord(a, c);
                let e2 = ord(b, d2);
                if e1.0 == e1.1 || e2.0 == e2.1 || e1 == e2 {
                    continue;
                }
                if seen.contains(&e1) || seen.contains(&e2) {
                    continue;
                }
                // Conservative update: insert the new edges, leave the old
                // ones in `seen` (prevents re-creating them this pass; the
                // next pass rebuilds `seen` exactly).
                seen.insert(e1);
                seen.insert(e2);
                edges[i] = e1;
                edges[j] = e2;
                fixed_any = true;
                break;
            }
        }
        if !fixed_any {
            return None;
        }
    }
    None
}

/// The graph on `n` nodes whose edges are every pair `absent` lacks;
/// `absent` holds simple edges `(a, b)` with `a < b`.
fn complement(n: usize, absent: &[(u32, u32)]) -> Adjacency {
    use fxhash::FxHashSet;

    let absent: FxHashSet<(u32, u32)> = absent.iter().copied().collect();
    let last = n as u32;
    let edges = (0..last)
        .flat_map(|a| (a + 1..last).map(move |b| (a, b)))
        .filter(|e| !absent.contains(e))
        .map(|(a, b)| (NodeIdx::new(a), NodeIdx::new(b)));
    Adjacency::from_edges(n, edges)
}

fn ord(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn produces_exact_degrees() {
        let mut rng = SmallRng::seed_from_u64(11);
        let t = random_regular(200, 8, &mut rng).unwrap();
        assert_eq!(t.len(), 200);
        for n in t.iter_nodes() {
            assert_eq!(t.degree(n), 8, "node {n} has wrong degree");
        }
        assert_eq!(t.edge_count(), 200 * 8 / 2);
    }

    #[test]
    fn high_degree_graphs_work() {
        let mut rng = SmallRng::seed_from_u64(5);
        // Degree 100 as in the paper (scaled-down node count).
        let t = random_regular(400, 100, &mut rng).unwrap();
        for n in t.iter_nodes() {
            assert_eq!(t.degree(n), 100);
        }
        assert!(crate::stats::is_connected(&t));
    }

    #[test]
    fn small_cycle_case() {
        let mut rng = SmallRng::seed_from_u64(2);
        let t = random_regular(3, 2, &mut rng).unwrap();
        assert_eq!(t.edge_count(), 3);
    }

    #[test]
    fn rejects_infeasible_parameters() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(random_regular(10, 0, &mut rng).is_err());
        assert!(random_regular(10, 10, &mut rng).is_err());
        // n*d odd
        assert!(random_regular(5, 3, &mut rng).is_err());
    }

    #[test]
    fn connected_for_moderate_degree() {
        for seed in 0..5u64 {
            let mut r = SmallRng::seed_from_u64(seed);
            let t = random_regular(100, 4, &mut r).unwrap();
            assert!(crate::stats::is_connected(&t));
        }
    }

    /// Every feasible dense degree builds: the complete graph and the
    /// few nodes past it, at the paper's degree among others.
    #[test]
    fn dense_degrees_build_on_every_seed() {
        for d in [8usize, 16, 32, 100] {
            for n in (d + 1..=d + 6).filter(|n| (n * d).is_multiple_of(2)) {
                for seed in 1..=20u64 {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let t = random_regular(n, d, &mut rng)
                        .unwrap_or_else(|e| panic!("n = {n}, d = {d}, seed {seed}: {e}"));
                    assert!(t.iter_nodes().all(|v| t.degree(v) == d), "n = {n}, d = {d}");
                    assert!(crate::stats::is_connected(&t));
                }
            }
        }
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let mut rng = SmallRng::seed_from_u64(9);
        let t = random_regular(64, 6, &mut rng).unwrap();
        for a in t.iter_nodes() {
            let nbrs = t.neighbors(a);
            assert!(!nbrs.contains(&a));
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
        }
    }
}
