//! Converged-ring construction.
//!
//! The paper's experiments start from a *converged* overlay (stage 1 of
//! Section 3 runs on a static network). Rather than simulating thousands
//! of joins, we compute the exact fixed point of Chord's maintenance
//! protocol directly: successor lists from the sorted ring, predecessors,
//! and every finger `i` as the true successor of `id + 2^i`.

use mpil_id::Id;
use mpil_overlay::NodeIdx;

use crate::ring::finger_start;
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
            for f in 0..mpil_id::ID_BITS {
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
