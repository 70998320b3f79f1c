//! Converged-ring construction.
//!
//! The paper's experiments start from a *converged* overlay (stage 1 of
//! Section 3 runs on a static network). Rather than simulating thousands
//! of joins, we compute the exact fixed point of Chord's maintenance
//! protocol directly: successor lists from the sorted ring, predecessors,
//! and every finger `i` as the true successor of `id + 2^i`.
//!
//! Most fingers need no search. With `gap` the clockwise distance from a
//! node to its successor, every start `id + 2^i` with `2^i ≤ gap` lies in
//! `(id, successor]`, so its finger is the successor: the low
//! `bitlen(gap)` fingers are set directly, and only the rest (about
//! `log₂ n` of the 160) binary-search the sorted ring.

use mpil_id::Id;
use mpil_overlay::NodeIdx;

use crate::ring::{dist_cw, finger_start};
use crate::state::ChordState;

/// Successor-list length `r` (Stoica et al. recommend `Ω(log N)`; 8
/// matches Pastry's leaf-set half-size budget). Bounds the DHash
/// replication factor ([`crate::ChordConfig::replication`]).
pub(crate) const SUCCESSOR_LIST_LEN: usize = 8;

/// Builds the converged state of every node.
///
/// # Panics
///
/// Panics if `ids` is empty or contains duplicates (a 160-bit space makes
/// random collisions vanishingly unlikely; duplicates indicate a bug in
/// the caller's ID assignment).
pub fn build_converged_states(ids: &[Id]) -> Vec<ChordState> {
    assert!(!ids.is_empty(), "cannot build an empty ring");
    let n = ids.len();

    // Ring order: node indices sorted by identifier.
    let mut ring: Vec<usize> = (0..n).collect();
    ring.sort_by_key(|&i| ids[i]);
    for w in ring.windows(2) {
        assert!(ids[w[0]] != ids[w[1]], "duplicate identifiers in the ring");
    }
    // rank[i] = position of node i on the sorted ring.
    let mut rank = vec![0usize; n];
    for (pos, &i) in ring.iter().enumerate() {
        rank[i] = pos;
    }
    let sorted_ids: Vec<Id> = ring.iter().map(|&i| ids[i]).collect();

    // successor_of(key) = first node clockwise whose id >= key, wrapping.
    let successor_of = |key: Id| -> usize {
        let pos = sorted_ids.partition_point(|&id| id < key);
        ring[pos % n]
    };

    (0..n)
        .map(|i| {
            let node = NodeIdx::new(i as u32);
            let mut st = ChordState::new(node, ids[i], SUCCESSOR_LIST_LEN);
            let me = rank[i];
            for k in 1..=SUCCESSOR_LIST_LEN.min(n - 1) {
                let succ = ring[(me + k) % n];
                st.offer_successor(NodeIdx::new(succ as u32), ids);
            }
            if n > 1 {
                let pred = ring[(me + n - 1) % n];
                st.set_predecessor(Some(NodeIdx::new(pred as u32)));
            }
            // On a one-node ring the gap is zero and every finger is
            // searched (each finds the node itself).
            let succ = ring[(me + 1) % n];
            let gap = dist_cw(ids[i], ids[succ]);
            let near = mpil_id::ID_BITS - gap.leading_zeros() as usize;
            for f in 0..near {
                st.set_finger(f, NodeIdx::new(succ as u32));
            }
            for f in near..mpil_id::ID_BITS {
                let target = successor_of(finger_start(ids[i], f));
                st.set_finger(f, NodeIdx::new(target as u32));
            }
            st
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::in_half_open;
    use mpil_overlay::random_ids;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ids(vals: &[u64]) -> Vec<Id> {
        vals.iter().copied().map(Id::from_low_u64).collect()
    }

    #[test]
    fn successors_follow_sorted_ring() {
        let table = ids(&[30, 10, 20, 40]);
        let states = build_converged_states(&table);
        // Node 1 (id 10) → successor node 2 (id 20), then 0 (30), 3 (40).
        assert_eq!(
            states[1].successors(),
            &[NodeIdx::new(2), NodeIdx::new(0), NodeIdx::new(3)]
        );
        // Node 3 (id 40) wraps to node 1 (id 10).
        assert_eq!(states[3].successor(), Some(NodeIdx::new(1)));
        // Predecessors are the ring inverse of successors.
        assert_eq!(states[1].predecessor(), Some(NodeIdx::new(3)));
        assert_eq!(states[2].predecessor(), Some(NodeIdx::new(1)));
    }

    #[test]
    fn every_finger_is_the_true_successor_of_its_start() {
        let mut rng = SmallRng::seed_from_u64(11);
        let table = random_ids(64, &mut rng);
        let states = build_converged_states(&table);
        let mut sorted: Vec<Id> = table.clone();
        sorted.sort();
        for st in &states {
            for f in 0..mpil_id::ID_BITS {
                let start = finger_start(st.id(), f);
                // The true successor of `start` on the sorted ring.
                let expect = *sorted.iter().find(|&&id| id >= start).unwrap_or(&sorted[0]);
                match st.finger(f) {
                    Some(node) => assert_eq!(table[node.index()], expect),
                    None => assert_eq!(expect, st.id(), "cleared finger must mean self"),
                }
            }
        }
    }

    /// Every finger of every node by binary search over the sorted
    /// ring: the reference the gap rule must reproduce.
    fn searched_fingers(ids: &[Id]) -> Vec<Vec<Option<NodeIdx>>> {
        let mut sorted: Vec<(Id, usize)> = ids.iter().copied().zip(0..).collect();
        sorted.sort();
        ids.iter()
            .enumerate()
            .map(|(i, &id)| {
                (0..mpil_id::ID_BITS)
                    .map(|f| {
                        let start = finger_start(id, f);
                        let (_, j) =
                            sorted[sorted.partition_point(|&(s, _)| s < start) % ids.len()];
                        (j != i).then(|| NodeIdx::new(j as u32))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn gap_rule_matches_the_search_at_its_boundaries() {
        let low = Id::from_low_u64;
        let pow = |f| finger_start(Id::ZERO, f);
        let mut rng = SmallRng::seed_from_u64(23);
        let rings = [
            // n = 1, 2 and 3.
            vec![low(7)],
            vec![low(100), low(200)],
            vec![low(5), pow(80), pow(159)],
            // Gaps of exactly 2^5 and 2^100 (0 → 32, 2^100 → 2^101).
            vec![Id::ZERO, pow(5), pow(100), pow(101)],
            // Gaps of 1.
            vec![low(10), low(11), low(12), pow(150)],
            // The largest id's successor across the wrap, 4 = 2^2 away,
            // and MAX − 1 one below it.
            vec![
                Id::MAX,
                low(3),
                mpil_id::wrapping_sub(Id::MAX, low(1)),
                pow(159),
            ],
            // A gap of 1 across the wrap, and one of 2^160 − 1 (every
            // finger is the successor, none searched).
            vec![Id::MAX, Id::ZERO],
            random_ids(200, &mut rng),
        ];
        for ids in &rings {
            let states = build_converged_states(ids);
            for (st, expect) in states.iter().zip(searched_fingers(ids)) {
                let got: Vec<_> = (0..mpil_id::ID_BITS).map(|f| st.finger(f)).collect();
                assert_eq!(got, expect, "ring {ids:?}, node {}", st.id());
            }
        }
    }

    #[test]
    fn ownership_partitions_the_key_space() {
        let mut rng = SmallRng::seed_from_u64(5);
        let table = random_ids(32, &mut rng);
        let states = build_converged_states(&table);
        for _ in 0..200 {
            let key = Id::random(&mut rng);
            let owners: Vec<_> = states.iter().filter(|s| s.owns(key, &table)).collect();
            assert_eq!(owners.len(), 1, "exactly one owner per key");
            // And the owner is the interval-correct one.
            let o = owners[0];
            let p = o.predecessor().unwrap();
            assert!(in_half_open(table[p.index()], key, o.id()));
        }
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let table = ids(&[7]);
        let states = build_converged_states(&table);
        assert_eq!(states[0].successor(), None);
        assert_eq!(states[0].predecessor(), None);
        assert!(states[0].owns(Id::from_low_u64(123), &table));
        assert!(states[0].owns(Id::MAX, &table));
    }

    #[test]
    fn two_node_ring_is_mutual() {
        let table = ids(&[100, 200]);
        let states = build_converged_states(&table);
        assert_eq!(states[0].successor(), Some(NodeIdx::new(1)));
        assert_eq!(states[1].successor(), Some(NodeIdx::new(0)));
        assert_eq!(states[0].predecessor(), Some(NodeIdx::new(1)));
        assert_eq!(states[1].predecessor(), Some(NodeIdx::new(0)));
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_rejected() {
        build_converged_states(&[]);
    }

    #[test]
    #[should_panic(expected = "duplicate identifiers")]
    fn duplicate_ids_rejected() {
        build_converged_states(&ids(&[5, 5]));
    }
}
