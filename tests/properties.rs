//! Property-based tests over the whole stack: for arbitrary overlays,
//! parameters and seeds, MPIL's structural invariants must hold.

use mpil::{plan_forwarding, MpilConfig, StaticEngine};
use mpil_id::{Id, IdSpace};
use mpil_overlay::{generators, NodeIdx, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An arbitrary small connected topology from one of the generator
/// families.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (0u8..5, 20usize..120, any::<u64>()).prop_map(|(family, n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        match family {
            0 => generators::random_regular(n, 4.min(n - 1), &mut rng).unwrap(),
            1 => generators::power_law(n.max(8), Default::default(), &mut rng).unwrap(),
            2 => generators::ring(n.max(3), &mut rng).unwrap(),
            3 => generators::grid(4, (n / 4).max(2), &mut rng).unwrap(),
            _ => generators::complete(n.clamp(2, 40), &mut rng).unwrap(),
        }
    })
}

fn arb_config() -> impl Strategy<Value = MpilConfig> {
    (1u32..20, 1u32..6, any::<bool>()).prop_map(|(mf, r, ds)| {
        MpilConfig::default()
            .with_max_flows(mf)
            .with_num_replicas(r)
            .with_duplicate_suppression(ds)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_respects_bounds_on_arbitrary_overlays(
        topo in arb_topology(),
        config in arb_config(),
        seed in any::<u64>(),
        oseed in any::<u64>(),
    ) {
        let mut engine = StaticEngine::new(&topo, config, seed);
        let object = Id::from_low_u64(oseed | 1);
        let origin = NodeIdx::new((oseed % topo.len() as u64) as u32);
        let report = engine.insert(origin, object);
        // At least one replica always lands (the flow ends at SOME local
        // maximum, possibly the origin itself).
        prop_assert!(report.replicas >= 1);
        prop_assert!(u64::from(report.replicas) <= config.replica_bound());
        prop_assert!(report.flows_created <= config.max_flows);
        // Replica holders must actually hold it.
        let holders = engine.replica_holders(object);
        prop_assert_eq!(holders.len() as u32, report.replicas);
    }

    #[test]
    fn lookup_never_false_positive(
        topo in arb_topology(),
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let mut engine = StaticEngine::new(&topo, config, seed);
        // Nothing inserted: lookups must all miss.
        let object = Id::from_low_u64(seed | 3);
        let report = engine.lookup(NodeIdx::new(0), object);
        prop_assert!(!report.success);
        prop_assert_eq!(report.first_reply_hops, None);
    }

    #[test]
    fn lookup_from_replica_holder_is_instant(
        topo in arb_topology(),
        seed in any::<u64>(),
    ) {
        let config = MpilConfig::default().with_max_flows(10).with_num_replicas(3);
        let mut engine = StaticEngine::new(&topo, config, seed);
        let object = Id::from_low_u64(seed | 7);
        engine.insert(NodeIdx::new(0), object);
        let holders = engine.replica_holders(object);
        prop_assert!(!holders.is_empty());
        let report = engine.lookup(holders[0], object);
        prop_assert!(report.success);
        prop_assert_eq!(report.first_reply_hops, Some(0));
        prop_assert_eq!(report.messages, 0);
    }

    #[test]
    fn quota_conservation_exhaustive(quota in 0u32..100, given in 0u32..2, cands in 0usize..200) {
        let plan = plan_forwarding(quota, given, cands);
        prop_assert!(plan.m as usize <= cands);
        prop_assert!(plan.m <= quota + given);
        if plan.m > 0 {
            let quotas: Vec<u32> = (0..plan.m).map(|i| plan.child_quota(i)).collect();
            let sum: u32 = quotas.iter().sum();
            prop_assert_eq!(sum + plan.m, quota + given);
            // Round-robin residue: quotas differ by at most one.
            let min = quotas.iter().min().copied().unwrap();
            let max = quotas.iter().max().copied().unwrap();
            prop_assert!(max - min <= 1);
            // Residue goes to the front.
            prop_assert!(quotas.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn duplicate_suppression_never_increases_traffic(
        topo in arb_topology(),
        seed in any::<u64>(),
    ) {
        let base = MpilConfig::default().with_max_flows(8).with_num_replicas(3);
        let object = Id::from_low_u64(seed | 9);
        let origin = NodeIdx::new((seed % topo.len() as u64) as u32);
        let with_ds = {
            let mut e = StaticEngine::new(&topo, base.with_duplicate_suppression(true), seed);
            e.insert(origin, object)
        };
        let without_ds = {
            let mut e = StaticEngine::new(&topo, base.with_duplicate_suppression(false), seed);
            e.insert(origin, object)
        };
        prop_assert!(with_ds.messages <= without_ds.messages);
    }

    #[test]
    fn metric_agreement_between_crates(a in any::<u64>(), b in any::<u64>()) {
        // The metric the engines route on is exactly the id-crate metric.
        let x = Id::from_low_u64(a);
        let y = Id::from_low_u64(b);
        let space = IdSpace::base4();
        prop_assert_eq!(
            space.common_digits(x, y),
            mpil_id::common_digits(x, y, 2)
        );
    }

    #[test]
    fn analysis_probabilities_are_probabilities(d in 1usize..500) {
        let model = mpil_analysis::AnalysisModel::base4();
        let c = model.local_max_probability(d);
        prop_assert!((0.0..=1.0).contains(&c));
        let hops = model.expected_hops_regular(d);
        prop_assert!(hops >= 1.0);
    }
}
