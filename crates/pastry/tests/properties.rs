//! Property-based tests for the Pastry data structures and routing.

use mpil_id::{ring_distance, Id, IdSpace};
use mpil_overlay::{random_ids, NodeIdx};
use mpil_pastry::build_converged_states;
use mpil_pastry::{LeafSet, NextHop, RoutingTable};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_id() -> impl Strategy<Value = Id> {
    proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn leafset_keeps_the_nearest_per_side(
        own in arb_id(),
        candidates in prop::collection::vec(arb_id(), 1..40),
    ) {
        let mut ls = LeafSet::new(own, 8);
        let mut distinct = Vec::new();
        for (i, id) in candidates.into_iter().enumerate() {
            if id == own || distinct.iter().any(|&(x, _)| x == id) {
                continue;
            }
            distinct.push((id, NodeIdx::new(i as u32)));
            ls.consider(id, NodeIdx::new(i as u32));
        }
        // Right side must equal the 4 clockwise-nearest distinct
        // candidates.
        let mut by_cw = distinct.clone();
        by_cw.sort_by_key(|&(id, _)| mpil_id::wrapping_sub(id, own));
        let expect: Vec<NodeIdx> = by_cw.iter().take(4).map(|&(_, n)| n).collect();
        let got: Vec<NodeIdx> = ls.right_side().iter().map(|&(_, n)| n).collect();
        prop_assert_eq!(got, expect);
        // Left side: counter-clockwise nearest.
        let mut by_ccw = distinct.clone();
        by_ccw.sort_by_key(|&(id, _)| mpil_id::wrapping_sub(own, id));
        let expect_l: Vec<NodeIdx> = by_ccw.iter().take(4).map(|&(_, n)| n).collect();
        let got_l: Vec<NodeIdx> = ls.left_side().iter().map(|&(_, n)| n).collect();
        prop_assert_eq!(got_l, expect_l);
    }

    #[test]
    fn leafset_closest_is_truly_closest(
        own in arb_id(),
        candidates in prop::collection::vec(arb_id(), 1..20),
        key in arb_id(),
    ) {
        let mut ls = LeafSet::new(own, 8);
        for (i, id) in candidates.iter().enumerate() {
            if *id != own {
                ls.consider(*id, NodeIdx::new(i as u32));
            }
        }
        let own_d = ring_distance(own, key);
        match ls.closest(key, |_| false) {
            None => {
                // Owner is closest among itself and all members.
                for &(mid, _) in ls.left_side().iter().chain(ls.right_side()) {
                    prop_assert!(ring_distance(mid, key) >= own_d);
                }
            }
            Some((mid, _)) => {
                let d = ring_distance(mid, key);
                prop_assert!(d < own_d);
                for &(oid, _) in ls.left_side().iter().chain(ls.right_side()) {
                    prop_assert!(ring_distance(oid, key) >= d);
                }
            }
        }
    }

    #[test]
    fn routing_table_slots_are_correct(
        own in arb_id(),
        candidates in prop::collection::vec(arb_id(), 0..40),
    ) {
        let space = IdSpace::base16();
        let mut rt = RoutingTable::new(own, space);
        for (i, id) in candidates.into_iter().enumerate() {
            rt.consider(id, NodeIdx::new(i as u32));
        }
        for (id, _) in rt.entries() {
            let row = space.prefix_match(own, id) as usize;
            let found = rt.row_entries(row).iter().any(|&(x, _)| x == id);
            prop_assert!(found, "entry not in its prefix row");
        }
    }

    #[test]
    fn routing_entry_for_key_extends_the_prefix(
        own in arb_id(),
        candidates in prop::collection::vec(arb_id(), 1..40),
        key in arb_id(),
    ) {
        let space = IdSpace::base16();
        let mut rt = RoutingTable::new(own, space);
        for (i, id) in candidates.into_iter().enumerate() {
            rt.consider(id, NodeIdx::new(i as u32));
        }
        if let Some((id, _)) = rt.entry_for_key(key) {
            prop_assert!(
                space.prefix_match(id, key) > space.prefix_match(own, key),
                "routing must extend the shared prefix"
            );
        }
    }

    #[test]
    fn greedy_routing_always_reaches_the_true_root(
        n in 8usize..120,
        seed in any::<u64>(),
        key in arb_id(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        let states = build_converged_states(&ids, &mut rng);
        let root = (0..n).min_by_key(|&i| ring_distance(ids[i], key)).unwrap();
        let mut at = (seed % n as u64) as usize;
        let mut hops = 0;
        loop {
            match states[at].next_hop(IdSpace::base16(), key, |_| false) {
                NextHop::Local => break,
                NextHop::Forward(nx) => {
                    at = nx.index();
                    hops += 1;
                    prop_assert!(hops < 64, "routing loop");
                }
            }
        }
        prop_assert_eq!(at, root, "misrouted to n{} instead of n{}", at, root);
    }

    #[test]
    fn routing_hop_count_is_logarithmic(
        seed in any::<u64>(),
        key in arb_id(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 256;
        let ids = random_ids(n, &mut rng);
        let states = build_converged_states(&ids, &mut rng);
        let mut at = 0usize;
        let mut hops = 0;
        loop {
            match states[at].next_hop(IdSpace::base16(), key, |_| false) {
                NextHop::Local => break,
                NextHop::Forward(nx) => {
                    at = nx.index();
                    hops += 1;
                }
            }
        }
        // log16(256) = 2; leaf-set hops add a couple more.
        prop_assert!(hops <= 6, "expected O(log n) hops, got {hops}");
    }

    #[test]
    fn removal_then_routing_never_selects_removed(
        n in 8usize..60,
        seed in any::<u64>(),
        key in arb_id(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        let mut states = build_converged_states(&ids, &mut rng);
        let victim = NodeIdx::new(1);
        for s in &mut states {
            if s.node != victim {
                s.remove(victim);
            }
        }
        for s in &states {
            if s.node == victim {
                continue;
            }
            if let NextHop::Forward(nx) = s.next_hop(IdSpace::base16(), key, |_| false) {
                prop_assert!(nx != victim, "forwarded to a removed node");
            }
        }
    }
}
