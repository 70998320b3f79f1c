//! Converged-overlay bootstrap.
//!
//! The paper's experiments start from a fully built ("static") overlay:
//! inserts run before any perturbation begins (Section 3). Rather than
//! simulating 1000 joins, we construct each node's state directly from
//! global membership, which yields exactly the converged state the join
//! protocol would settle into: perfect leaf sets, and routing tables
//! filled with a deterministic-random eligible candidate per slot.

use mpil_id::{Id, IdSpace};
use mpil_overlay::NodeIdx;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::engine::SPACE;
use crate::state::PastryState;

/// Leaf set size `l` (half on each side of the ring).
pub(crate) const LEAF_SET_SIZE: usize = 8;

/// Builds converged Pastry state for every node.
///
/// `ids[i]` is node `i`'s 160-bit identifier. Candidates for each routing
/// table slot are chosen uniformly at random from the eligible nodes
/// (MSPastry would pick by network proximity; the success-rate results do
/// not depend on that choice, see DESIGN.md).
///
/// # Panics
///
/// Panics if `ids` is empty or contains duplicates.
pub fn build_converged_states<R: Rng + ?Sized>(ids: &[Id], rng: &mut R) -> Vec<PastryState> {
    build_converged_states_partial(ids, None, rng)
}

/// Like [`build_converged_states`], but only the nodes in `members` (a
/// mask; `None` = everyone) participate in the converged overlay. The
/// rest get empty state — they are *unjoined* and can enter later through
/// the join protocol ([`crate::PastrySim::join`]).
///
/// # Panics
///
/// Panics if `ids` is empty, contains duplicates, the mask length
/// mismatches, or no node is a member.
pub fn build_converged_states_partial<R: Rng + ?Sized>(
    ids: &[Id],
    members: Option<&[bool]>,
    rng: &mut R,
) -> Vec<PastryState> {
    assert!(!ids.is_empty(), "need at least one node");
    if let Some(m) = members {
        assert_eq!(m.len(), ids.len(), "member mask length mismatch");
        assert!(m.iter().any(|&x| x), "need at least one member");
    }
    let is_member = |i: usize| members.is_none_or(|m| m[i]);

    // Ring order over members only.
    let mut order: Vec<usize> = (0..ids.len()).filter(|&i| is_member(i)).collect();
    order.sort_by_key(|&i| ids[i]);
    {
        let mut all: Vec<&Id> = ids.iter().collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[0] != w[1], "duplicate node IDs");
        }
    }

    let n = ids.len();
    let m = order.len();
    let half = LEAF_SET_SIZE / 2;
    let mut states: Vec<PastryState> = (0..n)
        .map(|i| PastryState::new(NodeIdx::new(i as u32), ids[i], SPACE, LEAF_SET_SIZE))
        .collect();

    // Leaf sets: walk the sorted member ring.
    for (pos, &i) in order.iter().enumerate() {
        if m < 2 {
            break;
        }
        for step in 1..=half.min(m - 1) {
            let succ = order[(pos + step) % m];
            let pred = order[(pos + m - step) % m];
            states[i]
                .leafset
                .consider(ids[succ], NodeIdx::new(succ as u32));
            if pred != succ {
                states[i]
                    .leafset
                    .consider(ids[pred], NodeIdx::new(pred as u32));
            }
        }
    }

    // Routing tables. The converged table is what "offer every member
    // to every member in shuffled order" produces: `consider` is
    // first-wins, so each slot ends up with the candidate of lowest
    // shuffled rank, and the shuffle keeps that choice unbiased. The
    // candidates for node i's slot (row r, col c) are the members
    // sharing exactly r leading digits with ids[i] and carrying digit
    // c at position r — a contiguous run of the id-sorted member
    // array, because Id order is digit-lexicographic. Descending
    // digit-by-digit and answering each slot with a range-minimum
    // query over shuffled ranks costs O(M·radix·digits) instead of
    // the all-pairs O(M²) scan, with an identical result (the shuffle
    // call, and hence the RNG stream, is unchanged).
    let mut shuffled: Vec<usize> = order.clone();
    shuffled.shuffle(rng);
    let mut rank = vec![0u32; n];
    for (r, &j) in shuffled.iter().enumerate() {
        rank[j] = r as u32;
    }
    let ranks_by_pos: Vec<u32> = order.iter().map(|&j| rank[j]).collect();
    let rmq = RangeArgmin::new(&ranks_by_pos);
    let radix = usize::from(SPACE.digit_bits().radix());
    let num_digits = SPACE.num_digits() as usize;
    for &i in &order {
        let (mut lo, mut hi) = (0usize, m);
        for row in 0..num_digits {
            if hi - lo <= 1 {
                break;
            }
            let own = usize::from(SPACE.digit(ids[i], row));
            let (mut next_lo, mut next_hi) = (lo, lo);
            let mut start = lo;
            for c in 0..radix {
                let end = start
                    + order[start..hi]
                        .partition_point(|&j| usize::from(SPACE.digit(ids[j], row)) == c);
                if end > start {
                    if c == own {
                        (next_lo, next_hi) = (start, end);
                    } else {
                        let w = order[rmq.argmin(start, end, &ranks_by_pos)];
                        let admitted = states[i].rt.consider(ids[w], NodeIdx::new(w as u32));
                        debug_assert!(admitted, "slot offered twice");
                    }
                }
                start = end;
                if start == hi {
                    break;
                }
            }
            (lo, hi) = (next_lo, next_hi);
        }
    }
    states
}

/// Sparse-table range-minimum over a fixed array: after O(n log n)
/// setup, `argmin` answers "position of the minimum of `vals[lo..hi]`"
/// in O(1). The values here are shuffled ranks — a permutation, so
/// minima are unique and the argmin unambiguous.
struct RangeArgmin {
    /// `levels[k][p]` = argmin position over `vals[p..p + 2^k]`.
    levels: Vec<Vec<u32>>,
}

impl RangeArgmin {
    fn new(vals: &[u32]) -> Self {
        let len = vals.len();
        let mut levels = vec![(0..len as u32).collect::<Vec<u32>>()];
        let mut span = 1usize;
        while span * 2 <= len {
            let prev = levels.last().expect("level 0 always present");
            let next: Vec<u32> = (0..=len - span * 2)
                .map(|p| {
                    let (a, b) = (prev[p], prev[p + span]);
                    if vals[a as usize] <= vals[b as usize] {
                        a
                    } else {
                        b
                    }
                })
                .collect();
            levels.push(next);
            span *= 2;
        }
        RangeArgmin { levels }
    }

    /// Position of the minimum of `vals[lo..hi]`; `vals` must be the
    /// slice passed to [`RangeArgmin::new`].
    fn argmin(&self, lo: usize, hi: usize, vals: &[u32]) -> usize {
        debug_assert!(lo < hi && hi <= vals.len());
        let k = (usize::BITS - 1 - (hi - lo).leading_zeros()) as usize;
        let span = 1usize << k;
        let (a, b) = (self.levels[k][lo], self.levels[k][hi - span]);
        if vals[a as usize] <= vals[b as usize] {
            a as usize
        } else {
            b as usize
        }
    }
}

/// Checks structural invariants of a converged overlay (used by tests
/// and debug assertions): leaf sets hold the true ring neighbors, and
/// every routing-table entry sits in its correct slot.
pub fn validate_converged(
    states: &[PastryState],
    ids: &[Id],
    space: IdSpace,
) -> Result<(), String> {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| ids[i]);
    let n = ids.len();
    for (pos, &i) in order.iter().enumerate() {
        let st = &states[i];
        // Right side must be the true successors.
        for (k, &(lid, lnode)) in st.leafset.right_side().iter().enumerate() {
            let expect = order[(pos + k + 1) % n];
            if lnode.index() != expect {
                return Err(format!(
                    "node {i}: right leaf {k} is {lnode}, expected n{expect}"
                ));
            }
            if lid != ids[expect] {
                return Err(format!("node {i}: right leaf {k} has stale id"));
            }
        }
        for (k, &(_, lnode)) in st.leafset.left_side().iter().enumerate() {
            let expect = order[(pos + n - ((k + 1) % n)) % n];
            if lnode.index() != expect {
                return Err(format!(
                    "node {i}: left leaf {k} is {lnode}, expected n{expect}"
                ));
            }
        }
        // Routing table entries live in their slots.
        for (eid, enode) in st.rt.entries() {
            let row = space.prefix_match(st.id, eid) as usize;
            let col = usize::from(space.digit(eid, row));
            let ok = st
                .rt
                .row_entries(row)
                .iter()
                .any(|&(xid, xnode)| xid == eid && xnode == enode);
            if !ok || eid != ids[enode.index()] {
                return Err(format!(
                    "node {i}: rt entry {enode} misplaced ({row},{col})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpil_overlay::random_ids;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build(n: usize, seed: u64) -> (Vec<Id>, Vec<PastryState>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        let states = build_converged_states(&ids, &mut rng);
        (ids, states)
    }

    #[test]
    fn converged_overlay_is_valid() {
        let (ids, states) = build(100, 1);
        validate_converged(&states, &ids, IdSpace::base16()).unwrap();
    }

    #[test]
    fn leaf_sets_are_full_for_large_overlays() {
        let (_, states) = build(100, 2);
        for s in &states {
            assert_eq!(s.leafset.right_side().len(), 4);
            assert_eq!(s.leafset.left_side().len(), 4);
        }
    }

    #[test]
    fn routing_tables_have_row_zero_mostly_full() {
        let (_, states) = build(200, 3);
        // With 200 random IDs, 15 of 16 first digits exist almost surely.
        let avg: f64 = states
            .iter()
            .map(|s| s.rt.row_entries(0).len() as f64)
            .sum::<f64>()
            / states.len() as f64;
        assert!(avg > 12.0, "row 0 fill average {avg}");
    }

    #[test]
    fn neighbor_lists_are_reasonable() {
        let (_, states) = build(200, 4);
        for s in &states {
            let nbrs = s.neighbor_list();
            // 8 leaves + ~2 rows of RT entries.
            assert!(nbrs.len() >= 10, "only {} neighbors", nbrs.len());
            assert!(nbrs.len() <= 60);
            assert!(!nbrs.contains(&s.node), "no self edges");
        }
    }

    #[test]
    fn greedy_routing_reaches_the_true_root() {
        use crate::state::NextHop;
        let (ids, states) = build(150, 5);
        let space = IdSpace::base16();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..50 {
            let key = Id::random(&mut rng);
            // True root: numerically closest (by ring distance) node.
            let root = (0..ids.len())
                .min_by_key(|&i| mpil_id::ring_distance(ids[i], key))
                .unwrap();
            // Route greedily from a random start.
            let mut at = rng.gen_range(0..ids.len());
            let mut hops = 0;
            loop {
                match states[at].next_hop(space, key, |_| false) {
                    NextHop::Local => break,
                    NextHop::Forward(nx) => {
                        at = nx.index();
                        hops += 1;
                        assert!(hops < 50, "routing loop");
                    }
                }
            }
            assert_eq!(at, root, "delivered to wrong root");
            assert!(hops <= 6, "too many hops for 150 nodes: {hops}");
        }
    }

    #[test]
    fn two_node_overlay_works() {
        let (ids, states) = build(2, 6);
        let space = IdSpace::base16();
        use crate::state::NextHop;
        // Each node's next hop for the other's ID is that node.
        match states[0].next_hop(space, ids[1], |_| false) {
            NextHop::Forward(x) => assert_eq!(x.index(), 1),
            NextHop::Local => panic!("must forward to the exact owner"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_membership_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = build_converged_states(&[], &mut rng);
    }

    /// The old all-pairs routing-table build: offer every member to
    /// every member in shuffled order. Kept as the oracle for the
    /// range-minimum fast path in `build_converged_states_partial`.
    fn quadratic_reference_tables(
        ids: &[Id],
        members: Option<&[bool]>,
        rng: &mut SmallRng,
    ) -> Vec<crate::routing_table::RoutingTable> {
        let is_member = |i: usize| members.is_none_or(|m| m[i]);
        let mut order: Vec<usize> = (0..ids.len()).filter(|&i| is_member(i)).collect();
        order.sort_by_key(|&i| ids[i]);
        let mut tables: Vec<_> = ids
            .iter()
            .map(|&id| crate::routing_table::RoutingTable::new(id, SPACE))
            .collect();
        let mut shuffled = order.clone();
        shuffled.shuffle(rng);
        for &i in &order {
            for &j in &shuffled {
                if j == i {
                    continue;
                }
                tables[i].consider(ids[j], NodeIdx::new(j as u32));
            }
        }
        tables
    }

    #[test]
    fn fast_build_matches_quadratic_reference() {
        for (seed, n, masked) in [
            (1u64, 230, false),
            (2, 97, true),
            (3, 2, false),
            (7, 64, true),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let ids = random_ids(n, &mut rng);
            let mask: Option<Vec<bool>> = masked.then(|| {
                let mut m: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
                m[0] = true; // at least one member
                m
            });
            // Both builds must consume the identical RNG stream (one
            // shuffle), so a clone of the pre-build RNG drives the
            // reference and must land in the same state.
            let mut ref_rng = rng.clone();
            let states = build_converged_states_partial(&ids, mask.as_deref(), &mut rng);
            let reference = quadratic_reference_tables(&ids, mask.as_deref(), &mut ref_rng);
            for (i, state) in states.iter().enumerate() {
                assert_eq!(
                    state.rt, reference[i],
                    "node {i} table diverges (seed {seed})"
                );
            }
            assert_eq!(
                rng.gen::<u64>(),
                ref_rng.gen::<u64>(),
                "fast build consumed a different amount of randomness"
            );
        }
    }
}
