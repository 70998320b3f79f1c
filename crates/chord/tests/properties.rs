//! Property-based tests for the ring algebra and converged bootstrap.

use mpil_chord::build_converged_states;
use mpil_chord::ring::{dist_cw, finger_start, in_half_open, in_open};
use mpil_id::{wrapping_add, wrapping_sub, Id};
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = Id> {
    proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
}

proptest! {
    /// dist_cw(a, x) + dist_cw(x, a) = 0 (mod 2^160) unless a == x.
    #[test]
    fn clockwise_distances_are_complementary(a in arb_id(), x in arb_id()) {
        let sum = wrapping_add(dist_cw(a, x), dist_cw(x, a));
        if a == x {
            prop_assert_eq!(sum, Id::ZERO);
        } else {
            prop_assert_eq!(sum, Id::ZERO);
            prop_assert!(!dist_cw(a, x).is_zero());
        }
    }

    /// Exactly one of x ∈ (a, b], x ∈ (b, a], x ∈ {a} ∩ {b} partitions
    /// the ring: for distinct a, b every x is in exactly one half.
    #[test]
    fn half_open_intervals_partition_the_ring(a in arb_id(), b in arb_id(), x in arb_id()) {
        prop_assume!(a != b);
        let in_ab = in_half_open(a, x, b);
        let in_ba = in_half_open(b, x, a);
        prop_assert!(in_ab ^ in_ba, "every key is in exactly one arc");
    }

    /// Open intervals are contained in their half-open closures.
    #[test]
    fn open_subset_of_half_open(a in arb_id(), b in arb_id(), x in arb_id()) {
        if in_open(a, x, b) {
            prop_assert!(in_half_open(a, x, b));
        }
    }

    /// The endpoint is in (a, b] but never in (a, b).
    #[test]
    fn interval_endpoints(a in arb_id(), b in arb_id()) {
        prop_assume!(a != b);
        prop_assert!(in_half_open(a, b, b));
        prop_assert!(!in_open(a, b, b));
        prop_assert!(!in_half_open(a, a, b));
    }

    /// finger_start advances by exactly 2^i.
    #[test]
    fn finger_start_offset(a in arb_id(), i in 0usize..160) {
        let s = finger_start(a, i);
        let back = wrapping_sub(s, a);
        // back must be the single bit 2^i.
        let bytes = back.to_bytes();
        let byte = mpil_id::ID_BYTES - 1 - i / 8;
        for (j, &v) in bytes.iter().enumerate() {
            if j == byte {
                prop_assert_eq!(v, 1u8 << (i % 8));
            } else {
                prop_assert_eq!(v, 0);
            }
        }
    }

    /// Transitivity along the clockwise arc: if x ∈ (a, b) and
    /// y ∈ (x, b) then y ∈ (a, b).
    #[test]
    fn open_interval_transitivity(a in arb_id(), b in arb_id(), x in arb_id(), y in arb_id()) {
        if in_open(a, x, b) && in_open(x, y, b) {
            prop_assert!(in_open(a, y, b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On any converged ring, each node's first successor is the ring
    /// successor and ownership covers each key exactly once.
    #[test]
    fn converged_rings_are_well_formed(seed in 0u64..1000, n in 2usize..40) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = mpil_overlay::random_ids(n, &mut rng);
        let states = build_converged_states(&ids);

        let mut ring: Vec<usize> = (0..n).collect();
        ring.sort_by_key(|&i| ids[i]);
        for (pos, &i) in ring.iter().enumerate() {
            let succ = ring[(pos + 1) % n];
            prop_assert_eq!(
                states[i].successor().map(|s| s.index()),
                Some(succ),
                "first successor must be the ring successor"
            );
            let pred = ring[(pos + n - 1) % n];
            prop_assert_eq!(states[i].predecessor().map(|p| p.index()), Some(pred));
        }

        let key = Id::random(&mut rng);
        let owners = states.iter().filter(|s| s.owns(key, &ids)).count();
        prop_assert_eq!(owners, 1);
    }

    /// next_hop either hands the message to the key's owner (final
    /// delivery: the owner's ID lies just *past* the key) or makes
    /// strict clockwise progress toward the key.
    #[test]
    fn next_hop_progresses_or_delivers(seed in 0u64..500, n in 3usize..32) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = mpil_overlay::random_ids(n, &mut rng);
        let states = build_converged_states(&ids);
        let key = Id::random(&mut rng);
        for st in &states {
            if st.owns(key, &ids) {
                continue;
            }
            let next = st.next_hop(key, &ids).expect("connected ring");
            if states[next.index()].owns(key, &ids) {
                continue; // final hop: delivered to the root
            }
            // Otherwise the next hop must be strictly closer (clockwise):
            // dist_cw(self, next) < dist_cw(self, key) and next precedes key.
            let before = dist_cw(st.id(), key);
            let after = dist_cw(ids[next.index()], key);
            prop_assert!(after < before, "routing must progress clockwise");
        }
    }
}
