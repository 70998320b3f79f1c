//! Property-based tests for the identifier space and metrics.

use mpil_id::{
    common_digits, numeric_distance, prefix_match_digits, ring_distance, suffix_match_digits,
    wrapping_add, wrapping_sub, xor_distance, Id, IdSpace, ID_BYTES,
};
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = Id> {
    proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
}

fn arb_digit_bits() -> impl Strategy<Value = u8> {
    prop::sample::select(vec![1u8, 2, 4, 8])
}

proptest! {
    #[test]
    fn common_digits_is_symmetric(a in arb_id(), b in arb_id(), bits in arb_digit_bits()) {
        prop_assert_eq!(common_digits(a, b, bits), common_digits(b, a, bits));
    }

    #[test]
    fn common_digits_self_is_total(a in arb_id(), bits in arb_digit_bits()) {
        prop_assert_eq!(common_digits(a, a, bits), 160 / u32::from(bits));
    }

    #[test]
    fn common_digits_bounded(a in arb_id(), b in arb_id(), bits in arb_digit_bits()) {
        let m = 160 / u32::from(bits);
        prop_assert!(common_digits(a, b, bits) <= m);
    }

    #[test]
    fn common_digits_matches_digitwise_count(a in arb_id(), b in arb_id(), bits in arb_digit_bits()) {
        // Reference implementation: compare digit by digit.
        let m = 160 / usize::from(bits);
        let expected = (0..m)
            .filter(|&i| a.digit(i, bits) == b.digit(i, bits))
            .count() as u32;
        prop_assert_eq!(common_digits(a, b, bits), expected);
    }

    #[test]
    fn prefix_plus_mismatch_consistency(a in arb_id(), b in arb_id(), bits in arb_digit_bits()) {
        // The digit right after the shared prefix must differ (unless the
        // prefix covers the whole ID).
        let p = prefix_match_digits(a, b, bits) as usize;
        let m = 160 / usize::from(bits);
        for i in 0..p {
            prop_assert_eq!(a.digit(i, bits), b.digit(i, bits));
        }
        if p < m {
            prop_assert_ne!(a.digit(p, bits), b.digit(p, bits));
        }
    }

    #[test]
    fn suffix_match_mirrors_prefix_of_reversed(a in arb_id(), b in arb_id(), bits in arb_digit_bits()) {
        let s = suffix_match_digits(a, b, bits) as usize;
        let m = 160 / usize::from(bits);
        for i in 0..s {
            prop_assert_eq!(a.digit(m - 1 - i, bits), b.digit(m - 1 - i, bits));
        }
        if s < m {
            prop_assert_ne!(a.digit(m - 1 - s, bits), b.digit(m - 1 - s, bits));
        }
    }

    #[test]
    fn prefix_and_suffix_bound_common(a in arb_id(), b in arb_id(), bits in arb_digit_bits()) {
        // Every shared-prefix digit and shared-suffix digit is a common
        // digit, and when a != b the two regions are disjoint.
        let c = common_digits(a, b, bits);
        let p = prefix_match_digits(a, b, bits);
        let s = suffix_match_digits(a, b, bits);
        if a != b {
            prop_assert!(c >= p + s);
        } else {
            prop_assert_eq!(c, 160 / u32::from(bits));
        }
    }

    #[test]
    fn xor_distance_identity_and_symmetry(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(xor_distance(a, a), Id::ZERO);
        prop_assert_eq!(xor_distance(a, b), xor_distance(b, a));
    }

    #[test]
    fn xor_triangle_inequality_holds(a in arb_id(), b in arb_id(), c in arb_id()) {
        // d(a,c) <= d(a,b) xor-added with d(b,c) is not a metric statement;
        // the actual Kademlia property is d(a,c) = d(a,b) ^ d(b,c).
        prop_assert_eq!(
            xor_distance(a, c),
            xor_distance(a, b) ^ xor_distance(b, c)
        );
    }

    #[test]
    fn add_sub_inverse(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(wrapping_sub(wrapping_add(a, b), b), a);
        prop_assert_eq!(wrapping_add(wrapping_sub(a, b), b), a);
    }

    #[test]
    fn add_commutes(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(wrapping_add(a, b), wrapping_add(b, a));
    }

    #[test]
    fn ring_distance_symmetric_and_bounded(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(ring_distance(a, b), ring_distance(b, a));
        // Ring distance is at most half the ring: its top bit may be set
        // only when the two halves are exactly opposite.
        let d = ring_distance(a, b);
        let other = wrapping_sub(Id::ZERO, d);
        if !d.is_zero() {
            prop_assert!(d <= other);
        }
    }

    #[test]
    fn numeric_distance_triangle(a in arb_id(), b in arb_id(), c in arb_id()) {
        // |a-c| <= |a-b| + |b-c| as 161-bit integers; verify via a u128
        // embedding of the top bytes to avoid bignum: instead check the
        // equivalent ordering statement on the ring with saturation.
        let ab = numeric_distance(a, b);
        let bc = numeric_distance(b, c);
        let ac = numeric_distance(a, c);
        let sum = wrapping_add(ab, bc);
        // If the sum did not wrap (sum >= ab), the triangle inequality must
        // hold exactly.
        if sum >= ab {
            prop_assert!(ac <= sum);
        }
    }

    #[test]
    fn parse_display_round_trip(a in arb_id()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Id>().unwrap(), a);
    }

    #[test]
    fn with_digit_then_digit_reads_back(a in arb_id(), i in 0usize..40, v in 0u8..16) {
        let id = a.with_digit(i, 4, v);
        prop_assert_eq!(id.digit(i, 4), v);
        // All other digits unchanged.
        for j in 0..40 {
            if j != i {
                prop_assert_eq!(id.digit(j, 4), a.digit(j, 4));
            }
        }
    }

    #[test]
    fn space_metrics_agree_with_free_functions(a in arb_id(), b in arb_id()) {
        let s = IdSpace::base4();
        prop_assert_eq!(s.common_digits(a, b), common_digits(a, b, 2));
        let s16 = IdSpace::base16();
        prop_assert_eq!(s16.prefix_match(a, b), prefix_match_digits(a, b, 4));
    }

    #[test]
    fn bytes_round_trip(bytes in proptest::array::uniform20(any::<u8>())) {
        let id = Id::from_bytes(bytes);
        prop_assert_eq!(id.to_bytes(), bytes);
        prop_assert_eq!(id.as_bytes(), &bytes);
        let _ = ID_BYTES;
    }

    // `Ord` compares big-endian words; these three hold it to byte order.
    #[test]
    fn order_is_byte_order_on_random_pairs(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(a.cmp(&b), a.to_bytes().cmp(&b.to_bytes()));
        prop_assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
    }

    #[test]
    fn order_is_byte_order_at_every_byte(
        a in arb_id(),
        tail in arb_id(),
        x in any::<u8>(),
        y in any::<u8>(),
    ) {
        let edges = [Id::ZERO, Id::MAX];
        for pos in 0..ID_BYTES {
            // Pairs that differ only at `pos`, from a random ID and from
            // both ends of the space.
            for base in edges.iter().copied().chain([a]) {
                let mut lo = base.to_bytes();
                let mut hi = lo;
                lo[pos] = x.min(y);
                hi[pos] = x.max(y);
                let (lo, hi) = (Id::from_bytes(lo), Id::from_bytes(hi));
                prop_assert_eq!(lo.cmp(&hi), x.min(y).cmp(&x.max(y)));
                prop_assert_eq!(lo.cmp(&hi), lo.to_bytes().cmp(&hi.to_bytes()));
                prop_assert_eq!(hi.cmp(&lo), hi.to_bytes().cmp(&lo.to_bytes()));
                for edge in edges {
                    prop_assert_eq!(lo.cmp(&edge), lo.to_bytes().cmp(&edge.to_bytes()));
                }
            }
            // A first difference at `pos` with unrelated bytes after it.
            let mut b = a.to_bytes();
            b[pos..].copy_from_slice(&tail.as_bytes()[pos..]);
            let b = Id::from_bytes(b);
            prop_assert_eq!(a.cmp(&b), a.to_bytes().cmp(&b.to_bytes()));
            prop_assert_eq!(b.cmp(&a), b.to_bytes().cmp(&a.to_bytes()));
        }
    }

    #[test]
    fn sorting_ids_is_sorting_bytes(
        base in arb_id(),
        ids in prop::collection::vec((0..ID_BYTES, arb_id()), 0..40),
    ) {
        // Each ID shares a random-length prefix with `base`, so the sort
        // has to decide on every byte position, not only the first.
        let mut ids: Vec<Id> = ids
            .into_iter()
            .map(|(shared, id)| {
                let mut b = base.to_bytes();
                b[shared..].copy_from_slice(&id.as_bytes()[shared..]);
                Id::from_bytes(b)
            })
            .collect();
        let mut by_bytes = ids.clone();
        by_bytes.sort_by_key(|id| id.to_bytes());
        ids.sort();
        prop_assert_eq!(ids, by_bytes);
    }
}
