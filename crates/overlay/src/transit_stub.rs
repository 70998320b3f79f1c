//! GT-ITM-style transit-stub Internet topologies.
//!
//! The paper's packet-level simulations run over "a topology generated by
//! GT-ITM as an underlying (Internet) topology" (Section 6.2). GT-ITM's
//! transit-stub model builds a three-level hierarchy — transit domains,
//! stub domains hanging off transit routers, and hosts attached to stub
//! routers — with per-level link latencies. We reproduce that structure
//! and expose the only thing the simulations consume: a host-to-host
//! latency function.

use std::collections::BinaryHeap;

use rand::Rng;

use crate::generators::GenerateError;
use crate::topology::NodeIdx;

// The hierarchy: ~200 routers, comparable to the classic GT-ITM
// `ts 2 4 3 8` configurations used in DHT papers.

/// Number of transit domains.
const TRANSIT_DOMAINS: usize = 2;

/// Routers per transit domain.
const ROUTERS_PER_TRANSIT: usize = 4;

/// Stub domains attached to each transit router.
const STUBS_PER_TRANSIT_ROUTER: usize = 3;

/// Routers per stub domain.
const ROUTERS_PER_STUB: usize = 8;

/// Latency of a transit–transit (inter-domain) link, microseconds.
const TRANSIT_TRANSIT_US: u32 = 50_000;

/// Latency of a link inside a transit domain, microseconds.
const INTRA_TRANSIT_US: u32 = 20_000;

/// Latency of a transit–stub uplink, microseconds.
const TRANSIT_STUB_US: u32 = 10_000;

/// Latency of a link inside a stub domain, microseconds.
const INTRA_STUB_US: u32 = 2_000;

/// Latency of a host's access link, microseconds.
const HOST_LINK_US: u32 = 1_000;

/// Probability of each random intra-domain chord beyond the ring that
/// guarantees connectivity (halved inside stub domains).
const CHORD_PROB: f64 = 0.3;

/// A generated transit-stub topology with `n` hosts attached.
///
/// Provides shortest-path latencies between any two hosts; host indices
/// are the same [`NodeIdx`] handles the overlay uses, so the discrete
/// event simulator can ask for `latency(from, to)` directly.
#[derive(Debug, Clone)]
pub struct TransitStub {
    hosts: usize,
    host_router: Vec<u32>,
    /// Row-major `router_count × router_count` shortest-path table (µs).
    router_dist: Vec<u32>,
    router_count: usize,
}

impl TransitStub {
    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// One-way latency between two hosts, in microseconds.
    ///
    /// Loopback (`a == b`) is 0.
    ///
    /// # Panics
    ///
    /// Panics if either host index is out of range.
    pub fn latency_us(&self, a: NodeIdx, b: NodeIdx) -> u32 {
        assert!(a.index() < self.hosts, "host {a} out of range");
        assert!(b.index() < self.hosts, "host {b} out of range");
        if a == b {
            return 0;
        }
        let ra = self.host_router[a.index()] as usize;
        let rb = self.host_router[b.index()] as usize;
        let core = self.router_dist[ra * self.router_count + rb];
        2 * HOST_LINK_US + core
    }
}

/// Generates the transit-stub hierarchy and attaches `hosts` end hosts
/// to uniformly random stub routers.
///
/// # Errors
///
/// Returns [`GenerateError`] if `hosts == 0`.
pub fn generate<R: Rng + ?Sized>(hosts: usize, rng: &mut R) -> Result<TransitStub, GenerateError> {
    if hosts == 0 {
        return Err(GenerateError::TooFewNodes {
            requested: 0,
            minimum: 1,
        });
    }

    // --- Lay out router indices -----------------------------------------
    let t_routers = TRANSIT_DOMAINS * ROUTERS_PER_TRANSIT;
    let stub_domains = t_routers * STUBS_PER_TRANSIT_ROUTER;
    let s_routers = stub_domains * ROUTERS_PER_STUB;
    let router_count = t_routers + s_routers;

    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); router_count];
    let add = |adj: &mut Vec<Vec<(u32, u32)>>, a: usize, b: usize, w: u32| {
        adj[a].push((b as u32, w));
        adj[b].push((a as u32, w));
    };

    // Transit domains: ring + chords internally.
    for dom in 0..TRANSIT_DOMAINS {
        let base = dom * ROUTERS_PER_TRANSIT;
        let k = ROUTERS_PER_TRANSIT;
        for i in 0..k {
            if k > 1 {
                add(&mut adj, base + i, base + (i + 1) % k, INTRA_TRANSIT_US);
            }
            for j in (i + 2)..k {
                if rng.gen_bool(CHORD_PROB) {
                    add(&mut adj, base + i, base + j, INTRA_TRANSIT_US);
                }
            }
        }
    }
    // Transit-transit: connect consecutive domains (ring of domains) via
    // random representative routers, plus random extra inter-domain links.
    if TRANSIT_DOMAINS > 1 {
        for dom in 0..TRANSIT_DOMAINS {
            let next = (dom + 1) % TRANSIT_DOMAINS;
            if TRANSIT_DOMAINS == 2 && dom == 1 {
                break; // avoid doubling the single inter-domain link
            }
            let a = dom * ROUTERS_PER_TRANSIT + rng.gen_range(0..ROUTERS_PER_TRANSIT);
            let b = next * ROUTERS_PER_TRANSIT + rng.gen_range(0..ROUTERS_PER_TRANSIT);
            add(&mut adj, a, b, TRANSIT_TRANSIT_US);
        }
    }

    // Stub domains: ring + chords internally, one uplink to their transit
    // router.
    for sd in 0..stub_domains {
        let transit_router = sd / STUBS_PER_TRANSIT_ROUTER;
        let base = t_routers + sd * ROUTERS_PER_STUB;
        let k = ROUTERS_PER_STUB;
        for i in 0..k {
            if k > 1 {
                add(&mut adj, base + i, base + (i + 1) % k, INTRA_STUB_US);
            }
            for j in (i + 2)..k {
                if rng.gen_bool(CHORD_PROB * 0.5) {
                    add(&mut adj, base + i, base + j, INTRA_STUB_US);
                }
            }
        }
        let gateway = base + rng.gen_range(0..k);
        add(&mut adj, transit_router, gateway, TRANSIT_STUB_US);
    }

    // --- All-pairs shortest paths over routers (Dijkstra per source) ----
    let mut router_dist = vec![u32::MAX; router_count * router_count];
    for src in 0..router_count {
        dijkstra(
            &adj,
            src,
            &mut router_dist[src * router_count..(src + 1) * router_count],
        );
    }

    // --- Attach hosts to random stub routers ----------------------------
    let host_router: Vec<u32> = (0..hosts)
        .map(|_| (t_routers + rng.gen_range(0..s_routers)) as u32)
        .collect();

    Ok(TransitStub {
        hosts,
        host_router,
        router_dist,
        router_count,
    })
}

fn dijkstra(adj: &[Vec<(u32, u32)>], src: usize, dist: &mut [u32]) {
    use std::cmp::Reverse;
    dist.fill(u32::MAX);
    dist[src] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, src as u32)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(w, cost) in &adj[v as usize] {
            let nd = d.saturating_add(cost);
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(Reverse((nd, w)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn make(hosts: usize, seed: u64) -> TransitStub {
        let mut rng = SmallRng::seed_from_u64(seed);
        generate(hosts, &mut rng).unwrap()
    }

    #[test]
    fn latency_is_symmetric_and_zero_on_diagonal() {
        let ts = make(50, 1);
        for a in 0..50u32 {
            assert_eq!(ts.latency_us(NodeIdx::new(a), NodeIdx::new(a)), 0);
        }
        for a in 0..20u32 {
            for b in 0..20u32 {
                assert_eq!(
                    ts.latency_us(NodeIdx::new(a), NodeIdx::new(b)),
                    ts.latency_us(NodeIdx::new(b), NodeIdx::new(a))
                );
            }
        }
    }

    #[test]
    fn all_hosts_reach_each_other() {
        let ts = make(100, 2);
        for a in 0..100u32 {
            let l = ts.latency_us(NodeIdx::new(a), NodeIdx::new((a + 1) % 100));
            assert!(l < u32::MAX, "unreachable pair");
            if a != (a + 1) % 100 {
                assert!(l >= 2 * 1_000, "must include both host links");
            }
        }
    }

    #[test]
    fn same_stub_cheaper_than_cross_transit() {
        let ts = make(400, 3);
        // Find two hosts on the same router and two on different routers
        // with a large latency gap; statistically guaranteed at 400 hosts.
        let mut same_router = None;
        for a in 0..400usize {
            for b in (a + 1)..400usize {
                if ts.host_router[a] == ts.host_router[b] {
                    same_router = Some((a as u32, b as u32));
                    break;
                }
            }
            if same_router.is_some() {
                break;
            }
        }
        let (a, b) = same_router.expect("collision expected at 400 hosts");
        let near = ts.latency_us(NodeIdx::new(a), NodeIdx::new(b));
        let far = (0..400u32)
            .map(|x| ts.latency_us(NodeIdx::new(a), NodeIdx::new(x)))
            .max()
            .unwrap();
        assert!(near < far, "hierarchy should create latency spread");
    }

    #[test]
    fn mean_latency_is_reasonable() {
        let ts = make(200, 4);
        // Over 500 deterministic host pairs, skipping a host paired with
        // itself.
        let pairs: Vec<(u32, u32)> = (0..500u32)
            .map(|k| ((k * 7919) % 200, (k * 104_729 + 1) % 200))
            .filter(|(a, b)| a != b)
            .collect();
        let total: u64 = pairs
            .iter()
            .map(|&(a, b)| u64::from(ts.latency_us(NodeIdx::new(a), NodeIdx::new(b))))
            .sum();
        let mean = total as f64 / pairs.len() as f64;
        // Two host links minimum, well under a second.
        assert!(mean > 2_000.0);
        assert!(mean < 500_000.0);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(generate(0, &mut rng).is_err());
    }

    #[test]
    fn router_count_matches_hierarchy() {
        let ts = make(10, 5);
        // 2 domains * 4 routers + 8 transit routers * 3 stubs * 8 routers
        assert_eq!(ts.router_count, 8 + 192);
        assert_eq!(ts.hosts(), 10);
    }
}
