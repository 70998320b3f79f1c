//! Inet-style power-law topologies.

use rand::Rng;

use crate::builder::TopologyBuilder;
use crate::generators::GenerateError;
use crate::topology::{NodeIdx, Topology};

/// Parameters for the Inet-style power-law generator.
///
/// The paper generates its power-law overlays with Inet (Jin, Chen &
/// Jamin 2002) configured with "0% of degree 1 nodes". Inet itself models
/// AS-level Internet topologies whose degree *frequency* follows a power
/// law with exponent ≈ 2.2 and which are connected via a spanning tree
/// rooted at the highest-degree nodes. This generator reproduces those
/// structural properties:
///
/// * degrees drawn from a discrete power law `P(d) ∝ d^(−exponent)` on
///   `[min_degree, max_degree]` (default `min_degree = 2`, matching the
///   0%-degree-1 setting);
/// * connectivity by construction — a degree-weighted random attachment
///   tree consumes one stub per node, and remaining stubs are paired
///   configuration-model style.
///
/// Building costs O(E + n log n): each attachment target is found by a
/// descent of a Fenwick tree of free stubs, with the same draws, and so
/// the same graph, as a scan of the attached nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawConfig {
    /// Power-law exponent (Inet's AS model uses ≈ 2.2).
    pub exponent: f64,
    /// Minimum degree; the paper uses 2 ("0% of degree 1 nodes").
    pub min_degree: usize,
    /// Degree cap as a fraction of `n` (hubs cannot exceed this).
    pub max_degree_fraction: f64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            exponent: 2.2,
            min_degree: 2,
            max_degree_fraction: 0.2,
        }
    }
}

/// Generates a connected power-law topology on `n` nodes.
///
/// See [`PowerLawConfig`] for the model. The result is simple (no
/// self-loops or parallel edges) and connected; realized degrees may fall
/// slightly below the drawn sequence when stub pairing leaves an odd
/// remainder, which mirrors how Inet trims infeasible sequences. It
/// takes O(E + n log n) time for E edges.
///
/// # Errors
///
/// * [`GenerateError::TooFewNodes`] if `n < 4`.
/// * [`GenerateError::InvalidParameter`] for a non-positive exponent,
///   `min_degree < 1`, or a degree cap below `min_degree`.
pub fn power_law<R: Rng + ?Sized>(
    n: usize,
    config: PowerLawConfig,
    rng: &mut R,
) -> Result<Topology, GenerateError> {
    if n < 4 {
        return Err(GenerateError::TooFewNodes {
            requested: n,
            minimum: 4,
        });
    }
    if config.exponent <= 1.0 {
        return Err(GenerateError::InvalidParameter {
            name: "exponent",
            constraint: "exponent > 1",
        });
    }
    if config.min_degree < 1 {
        return Err(GenerateError::InvalidParameter {
            name: "min_degree",
            constraint: "min_degree >= 1",
        });
    }
    let max_degree = ((n as f64) * config.max_degree_fraction).floor() as usize;
    let max_degree = max_degree.max(config.min_degree + 1).min(n - 1);
    if max_degree < config.min_degree {
        return Err(GenerateError::InvalidParameter {
            name: "max_degree_fraction",
            constraint: "cap must allow min_degree",
        });
    }

    // Draw the degree sequence from the truncated discrete power law via
    // inverse-CDF sampling.
    let weights: Vec<f64> = (config.min_degree..=max_degree)
        .map(|d| (d as f64).powf(-config.exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut degrees: Vec<usize> = (0..n)
        .map(|_| {
            let mut u = rng.gen::<f64>() * total;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    return config.min_degree + i;
                }
                u -= w;
            }
            max_degree
        })
        .collect();
    // Ensure a few hubs exist even in unlucky small draws: promote the
    // first node to the cap (Inet similarly pins the largest degrees).
    degrees[0] = max_degree;
    if n > 16 {
        degrees[1] = (max_degree / 2).max(config.min_degree);
    }
    if degrees.iter().sum::<usize>() % 2 == 1 {
        degrees[0] -= 1;
    }

    let mut b = TopologyBuilder::with_random_ids(n, rng);
    b.reserve(degrees.iter().sum::<usize>() / 2);
    let mut remaining: Vec<usize> = degrees.clone();

    // Phase 1: connectivity. Attach nodes one at a time to a random
    // already-attached node chosen with probability proportional to its
    // remaining stubs (falling back to uniform if all are exhausted).
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Visit in descending degree so hubs form the core, like Inet's
    // spanning tree over the highest-degree nodes.
    order.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
    let mut position = vec![0; n];
    for (i, &v) in order.iter().enumerate() {
        position[v as usize] = i;
    }
    // Free stubs by attachment position: the first `i` positions are the
    // attached nodes, so a pick in `0..total_stubs` lands on the node a
    // scan of them in order would stop at, found in O(log n).
    let mut free = FreeStubs::new(n);
    free.add(0, remaining[order[0] as usize]);
    let mut total_stubs = remaining[order[0] as usize];
    for (i, &v) in order.iter().enumerate().skip(1) {
        debug_assert_eq!(total_stubs, free.prefix(i));
        let target = if total_stubs == 0 {
            order[rng.gen_range(0..i)]
        } else {
            order[free.find(rng.gen_range(0..total_stubs))]
        };
        if b.add_edge(NodeIdx::new(v), NodeIdx::new(target)) {
            remaining[v as usize] = remaining[v as usize].saturating_sub(1);
            if remaining[target as usize] > 0 {
                remaining[target as usize] -= 1;
                free.take_one(position[target as usize]);
                total_stubs -= 1;
            }
        }
        free.add(i, remaining[v as usize]);
        total_stubs += remaining[v as usize];
    }

    // Phase 2: pair the remaining stubs configuration-model style,
    // discarding self-loops and duplicates (with bounded retries).
    let mut stubs: Vec<u32> = Vec::new();
    for (v, &r) in remaining.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as u32, r));
    }
    use rand::seq::SliceRandom;
    stubs.shuffle(rng);
    let mut leftovers: Vec<u32> = Vec::new();
    while stubs.len() >= 2 {
        let a = stubs.pop().expect("len checked");
        let c = stubs.pop().expect("len checked");
        if a != c && b.add_edge(NodeIdx::new(a), NodeIdx::new(c)) {
            continue;
        }
        leftovers.push(a);
        leftovers.push(c);
    }
    // One bounded retry round over leftovers paired against random nodes;
    // anything still unpaired is dropped (degree shortfall ≤ a few stubs).
    leftovers.extend(stubs);
    for &a in &leftovers {
        for _ in 0..16 {
            let c = rng.gen_range(0..n as u32);
            if c != a && b.add_edge(NodeIdx::new(a), NodeIdx::new(c)) {
                break;
            }
        }
    }

    Ok(b.build())
}

/// A Fenwick (binary indexed) tree of free stub counts by position.
struct FreeStubs {
    /// 1-based: `tree[j]` sums the positions `j - (j & -j) .. j`.
    tree: Vec<usize>,
}

impl FreeStubs {
    fn new(len: usize) -> Self {
        FreeStubs {
            tree: vec![0; len + 1],
        }
    }

    fn add(&mut self, position: usize, stubs: usize) {
        let mut j = position + 1;
        while j < self.tree.len() {
            self.tree[j] += stubs;
            j += j & j.wrapping_neg();
        }
    }

    fn take_one(&mut self, position: usize) {
        let mut j = position + 1;
        while j < self.tree.len() {
            self.tree[j] -= 1;
            j += j & j.wrapping_neg();
        }
    }

    /// Free stubs at positions `0..end`.
    fn prefix(&self, end: usize) -> usize {
        let mut sum = 0;
        let mut j = end;
        while j > 0 {
            sum += self.tree[j];
            j &= j - 1;
        }
        sum
    }

    /// The first position whose running sum exceeds `pick`, which must
    /// be below the total: the one a linear scan subtracting each
    /// position's stubs from `pick` stops at. A position with no free
    /// stubs is never returned.
    fn find(&self, mut pick: usize) -> usize {
        let mut at = 0;
        let mut step = self.tree.len().next_power_of_two() / 2;
        while step > 0 {
            let next = at + step;
            if next < self.tree.len() && self.tree[next] <= pick {
                at = next;
                pick -= self.tree[next];
            }
            step >>= 1;
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn gen(n: usize, seed: u64) -> Topology {
        let mut rng = SmallRng::seed_from_u64(seed);
        power_law(n, PowerLawConfig::default(), &mut rng).unwrap()
    }

    #[test]
    fn is_connected() {
        for seed in 0..4 {
            let t = gen(500, seed);
            assert!(stats::is_connected(&t), "seed {seed} disconnected");
        }
    }

    #[test]
    fn no_degree_zero_nodes() {
        let t = gen(1000, 3);
        for v in t.iter_nodes() {
            assert!(t.degree(v) >= 1);
        }
    }

    #[test]
    fn heavy_tail_exists() {
        let t = gen(2000, 9);
        let max_deg = t.iter_nodes().map(|v| t.degree(v)).max().unwrap();
        let median = {
            let mut d: Vec<_> = t.iter_nodes().map(|v| t.degree(v)).collect();
            d.sort_unstable();
            d[d.len() / 2]
        };
        // Hubs must dwarf the median node: that is the property MPIL's
        // duplicate-message behavior depends on.
        assert!(
            max_deg >= 20 * median.max(1),
            "max {max_deg} vs median {median}"
        );
    }

    #[test]
    fn most_nodes_have_small_degree() {
        let t = gen(2000, 4);
        let small = t.iter_nodes().filter(|&v| t.degree(v) <= 4).count();
        assert!(
            small as f64 > 0.6 * t.len() as f64,
            "power law should concentrate mass at low degrees ({small}/2000)"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(power_law(2, PowerLawConfig::default(), &mut rng).is_err());
        let bad = PowerLawConfig {
            exponent: 0.5,
            ..PowerLawConfig::default()
        };
        assert!(power_law(100, bad, &mut rng).is_err());
        let bad_min = PowerLawConfig {
            min_degree: 0,
            ..PowerLawConfig::default()
        };
        assert!(power_law(100, bad_min, &mut rng).is_err());
    }

    /// The attachment scan `FreeStubs::find` replaces.
    fn scan(stubs: &[usize], mut pick: usize) -> usize {
        for (i, &s) in stubs.iter().enumerate() {
            if pick < s {
                return i;
            }
            pick -= s;
        }
        unreachable!("pick {pick} beyond the total")
    }

    #[test]
    fn free_stubs_find_what_a_scan_finds() {
        let mut rng = SmallRng::seed_from_u64(11);
        for len in [1, 2, 3, 7, 8, 9, 33, 64] {
            let mut stubs: Vec<usize> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        0
                    } else {
                        rng.gen_range(1..6)
                    }
                })
                .collect();
            let mut free = FreeStubs::new(len);
            for (i, &s) in stubs.iter().enumerate() {
                free.add(i, s);
            }
            loop {
                let total: usize = stubs.iter().sum();
                assert_eq!(free.prefix(len), total);
                for pick in 0..total {
                    assert_eq!(free.find(pick), scan(&stubs, pick), "{stubs:?} pick {pick}");
                }
                let nonzero: Vec<usize> = (0..len).filter(|&i| stubs[i] > 0).collect();
                if nonzero.is_empty() {
                    break;
                }
                let at = nonzero[rng.gen_range(0..nonzero.len())];
                stubs[at] -= 1;
                free.take_one(at);
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = gen(300, 5);
        let b = gen(300, 5);
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.iter_nodes() {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }
}
