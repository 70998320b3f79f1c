//! Property-based tests for k-buckets and the converged routing tables.

use mpil_id::{xor_distance, Id};
use mpil_kademlia::bucket_index;
use mpil_kademlia::{build_converged_tables, Admission, KBucket, KademliaConfig};
use mpil_overlay::NodeIdx;
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = Id> {
    proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
}

proptest! {
    /// The bucket index is symmetric and bounded by 160.
    #[test]
    fn bucket_index_symmetric(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(bucket_index(a, b), bucket_index(b, a));
        if let Some(i) = bucket_index(a, b) {
            prop_assert!(i < 160);
        } else {
            prop_assert_eq!(a, b);
        }
    }

    /// Two IDs in the same bucket w.r.t. `a` are closer to each other
    /// than either is to `a`'s bucket boundary — the triangle property
    /// Kademlia's bucket hierarchy relies on: d(b, c) < 2^(i+1) when
    /// b, c are both in a's bucket i.
    #[test]
    fn same_bucket_members_are_mutually_close(a in arb_id(), b in arb_id(), c in arb_id()) {
        let (Some(ib), Some(ic)) = (bucket_index(a, b), bucket_index(a, c)) else {
            return Ok(());
        };
        prop_assume!(ib == ic);
        if b != c {
            let d = bucket_index(b, c).expect("distinct");
            prop_assert!(d < ib + 1, "d(b,c) must fall below bucket i+1, got {} vs {}", d, ib);
        }
    }

    /// A bucket never exceeds its capacity and never duplicates a peer,
    /// under any offer/remove sequence.
    #[test]
    fn bucket_capacity_and_uniqueness(ops in proptest::collection::vec((0u32..16, any::<bool>()), 1..64)) {
        let mut b = KBucket::default();
        let cap = 4usize;
        for (peer, insert) in ops {
            let n = NodeIdx::new(peer);
            if insert {
                let _ = b.offer(n, cap);
            } else {
                b.remove(n);
            }
            prop_assert!(b.len() <= cap);
            let mut seen = fxhash::FxHashSet::default();
            for e in b.iter() {
                prop_assert!(seen.insert(e), "duplicate entry {e:?}");
            }
        }
    }

    /// LRU ordering: after offering a present peer, it is at the tail.
    #[test]
    fn reoffer_moves_to_tail(peers in proptest::collection::vec(0u32..8, 2..20)) {
        let mut b = KBucket::default();
        let cap = 8usize;
        for &p in &peers {
            let _ = b.offer(NodeIdx::new(p), cap);
        }
        let last = *peers.last().expect("non-empty");
        if b.contains(NodeIdx::new(last)) {
            let tail = b.iter().last().expect("non-empty");
            prop_assert_eq!(tail, NodeIdx::new(last));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Converged tables: every peer sits in the bucket its XOR distance
    /// dictates, and `closest` returns a distance-sorted prefix of the
    /// true closest set.
    #[test]
    fn converged_tables_place_peers_correctly(seed in 0u64..500, n in 4usize..48) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ids: Vec<Id> = Vec::new();
        while ids.len() < n {
            let id = Id::random(&mut rng);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let config = KademliaConfig::default();
        let tables = build_converged_tables(&ids, &config);
        for (i, rt) in tables.iter().enumerate() {
            for b in 0..160 {
                for peer in rt.bucket(b).iter() {
                    prop_assert_eq!(bucket_index(ids[i], ids[peer.index()]), Some(b));
                }
            }
            // closest() is sorted by XOR distance.
            let target = Id::random(&mut rng);
            let cl = rt.closest(target, config.k, &ids);
            for w in cl.windows(2) {
                let d0 = xor_distance(ids[w[0].index()], target);
                let d1 = xor_distance(ids[w[1].index()], target);
                prop_assert!(d0 <= d1);
            }
        }
    }

    /// Offering every node to every table is idempotent on converged
    /// tables (they are already a fixed point).
    #[test]
    fn converged_tables_are_a_fixed_point(seed in 0u64..200, n in 4usize..32) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ids: Vec<Id> = Vec::new();
        while ids.len() < n {
            let id = Id::random(&mut rng);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let config = KademliaConfig::default().with_k(4);
        let mut tables = build_converged_tables(&ids, &config);
        for rt in tables.iter_mut() {
            let before: Vec<NodeIdx> = rt.iter().collect();
            for (j, &jid) in ids.iter().enumerate() {
                // Offers of already-present peers are admitted (LRU
                // touch); offers of absent peers on full buckets ask for
                // an eviction ping — either way membership is unchanged
                // unless the newcomer fills a non-full bucket it belongs
                // in (impossible: converged tables are full wherever
                // candidates exist).
                match rt.offer(NodeIdx::new(j as u32), jid) {
                    Admission::Admitted | Admission::PingEvictionCandidate(_) => {}
                }
            }
            let mut after: Vec<NodeIdx> = rt.iter().collect();
            let mut before_sorted = before;
            before_sorted.sort_unstable();
            after.sort_unstable();
            prop_assert_eq!(before_sorted, after);
        }
    }
}
