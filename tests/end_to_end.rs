//! Cross-crate integration tests: overlays + MPIL + analysis together.

use mpil::{MpilConfig, StaticEngine};
use mpil_analysis::{AnalysisModel, DegreeDistribution};
use mpil_id::{Id, IdSpace};
use mpil_overlay::{generators, stats, NodeIdx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Counts metric local maxima on a topology for one object.
fn count_local_maxima(topo: &mpil_overlay::Topology, object: Id, space: IdSpace) -> usize {
    topo.iter_nodes()
        .filter(|&n| {
            let own = space.common_digits(object, topo.id(n));
            topo.neighbors(n)
                .iter()
                .all(|&m| space.common_digits(object, topo.id(m)) <= own)
        })
        .count()
}

#[test]
fn analysis_matches_simulation_on_regular_graphs() {
    // Section 5's closed form against an actual generated topology: the
    // mean local-maxima count over many random objects must sit within a
    // few percent of N·C(d).
    let mut rng = SmallRng::seed_from_u64(7);
    let n = 2000;
    let d = 20;
    let topo = generators::random_regular(n, d, &mut rng).unwrap();
    let model = AnalysisModel::base4();
    // The simulation counts MPIL's actual definition (ties allowed), so
    // compare against the tie-aware closed form (120.1 here); the
    // paper's Figure 7 curve is the strict variant, which expects 75.8.
    let expected = model.expected_local_maxima_regular_with_ties(n, d);

    let trials = 60;
    let mut total = 0usize;
    for _ in 0..trials {
        let object = Id::random(&mut rng);
        total += count_local_maxima(&topo, object, IdSpace::base4());
    }
    let measured = total as f64 / trials as f64;
    let rel = (measured - expected).abs() / expected;
    assert!(
        rel < 0.10,
        "formula {expected:.1} vs measured {measured:.1} (rel err {rel:.3})"
    );
}

#[test]
fn analysis_general_formula_matches_power_law_simulation() {
    // The degree-distribution-weighted formula against a power-law graph.
    let mut rng = SmallRng::seed_from_u64(8);
    let n = 2000;
    let topo = generators::power_law(n, Default::default(), &mut rng).unwrap();
    let hist = stats::degree_histogram(&topo);
    let dist = DegreeDistribution::from_histogram(&hist);
    let model = AnalysisModel::base4();
    let expected = model.expected_local_maxima_with_ties(n, &dist);

    let trials = 60;
    let mut total = 0usize;
    for _ in 0..trials {
        let object = Id::random(&mut rng);
        total += count_local_maxima(&topo, object, IdSpace::base4());
    }
    let measured = total as f64 / trials as f64;
    let rel = (measured - expected).abs() / expected;
    // The independence assumption is only approximate on clustered
    // graphs; 15% is tight enough to catch real regressions.
    assert!(
        rel < 0.15,
        "formula {expected:.1} vs measured {measured:.1} (rel err {rel:.3})"
    );
}

#[test]
fn inserts_land_only_on_local_maxima() {
    let mut rng = SmallRng::seed_from_u64(9);
    let topo = generators::power_law(600, Default::default(), &mut rng).unwrap();
    let config = MpilConfig::default()
        .with_max_flows(20)
        .with_num_replicas(4);
    let mut engine = StaticEngine::new(&topo, config, 10);
    let space = IdSpace::base4();
    for k in 0..30u64 {
        let object = Id::random(&mut rng);
        let origin = NodeIdx::new((k % 600) as u32);
        engine.insert(origin, object);
        for holder in engine.replica_holders(object) {
            let own = space.common_digits(object, topo.id(holder));
            let beaten = topo
                .neighbors(holder)
                .iter()
                .any(|&m| space.common_digits(object, topo.id(m)) > own);
            assert!(!beaten, "replica stored at a non-local-maximum {holder}");
        }
    }
}

#[test]
fn replica_and_flow_bounds_hold_everywhere() {
    let mut rng = SmallRng::seed_from_u64(10);
    let topos = vec![
        generators::random_regular(300, 10, &mut rng).unwrap(),
        generators::power_law(300, Default::default(), &mut rng).unwrap(),
        generators::grid(15, 20, &mut rng).unwrap(),
        generators::star(100, &mut rng).unwrap(),
    ];
    for topo in &topos {
        for (mf, r) in [(1u32, 1u32), (5, 2), (10, 5), (30, 5)] {
            let config = MpilConfig::default()
                .with_max_flows(mf)
                .with_num_replicas(r);
            let mut engine = StaticEngine::new(topo, config, 11);
            for k in 0..10u64 {
                let object = Id::random(&mut rng);
                let origin = NodeIdx::new((k * 13 % topo.len() as u64) as u32);
                let ins = engine.insert(origin, object);
                assert!(u64::from(ins.replicas) <= config.replica_bound());
                assert!(ins.flows_created <= mf);
                let look = engine.lookup(origin, object);
                assert!(look.flows_created <= mf);
            }
        }
    }
}

#[test]
fn success_rate_scales_with_budget_like_table_1() {
    // Table 1's qualitative content: success grows in both max_flows and
    // per-flow replicas, and r=1 is far worse than r>=2.
    let mut rng = SmallRng::seed_from_u64(12);
    let topo = generators::power_law(1200, Default::default(), &mut rng).unwrap();
    let insert_config = MpilConfig::default()
        .with_max_flows(30)
        .with_num_replicas(5);
    let mut engine = StaticEngine::new(&topo, insert_config, 13);
    let objects: Vec<(Id, NodeIdx)> = (0..60)
        .map(|_| (Id::random(&mut rng), NodeIdx::new(rng.gen_range(0..1200))))
        .collect();
    for &(object, origin) in &objects {
        engine.insert(origin, object);
    }
    let rate = |mf: u32, r: u32, engine: &mut StaticEngine<'_>| -> f64 {
        engine.set_config(
            MpilConfig::default()
                .with_max_flows(mf)
                .with_num_replicas(r),
        );
        let mut ok = 0;
        for (k, &(object, _)) in objects.iter().enumerate() {
            let origin = NodeIdx::new(((k * 31 + 5) % 1200) as u32);
            if engine.lookup(origin, object).success {
                ok += 1;
            }
        }
        f64::from(ok) / objects.len() as f64
    };
    let r1 = rate(5, 1, &mut engine);
    let r2 = rate(5, 2, &mut engine);
    let r5 = rate(15, 5, &mut engine);
    assert!(r2 >= r1, "more replicas per flow helps: {r2} vs {r1}");
    assert!(r5 >= r2, "more flows helps: {r5} vs {r2}");
    assert!(r1 < 0.95, "r=1 leaves a visible gap (paper: 52-61%)");
    assert!(r5 > 0.95, "15 flows x 5 replicas is near-perfect");
}

#[test]
fn overlay_generators_deliver_claimed_structures() {
    let mut rng = SmallRng::seed_from_u64(14);
    // Regular: exact degrees, connected.
    let reg = generators::random_regular(500, 100, &mut rng).unwrap();
    assert!(reg.iter_nodes().all(|v| reg.degree(v) == 100));
    assert!(stats::is_connected(&reg));
    // Power-law: connected, min degree >= 1, heavy tail.
    let pl = generators::power_law(3000, Default::default(), &mut rng).unwrap();
    assert!(stats::is_connected(&pl));
    let hist = stats::degree_histogram(&pl);
    assert_eq!(hist.first().copied().unwrap_or(0), 0, "no degree-0 nodes");
    assert!(
        hist.len() > 50,
        "hubs exist (max degree {})",
        hist.len() - 1
    );
    // Transit-stub: latencies positive and bounded.
    let ts = mpil_overlay::transit_stub::generate(100, &mut rng).unwrap();
    let l = ts.latency_us(NodeIdx::new(0), NodeIdx::new(99));
    assert!((2_000..1_000_000).contains(&l));
}

#[test]
fn deletion_protocol_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(15);
    let topo = generators::random_regular(200, 10, &mut rng).unwrap();
    let config = MpilConfig::default()
        .with_max_flows(10)
        .with_num_replicas(3);
    let mut engine = StaticEngine::new(&topo, config, 16);
    let object = Id::random(&mut rng);
    let ins = engine.insert(NodeIdx::new(0), object);
    assert!(ins.replicas >= 1);
    assert!(engine.lookup(NodeIdx::new(100), object).success);
    assert_eq!(engine.delete(object) as u32, ins.replicas);
    assert!(!engine.lookup(NodeIdx::new(100), object).success);
}
