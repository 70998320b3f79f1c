//! Engine-conformance suite: one parameterized set of invariants, run
//! against every [`DiscoveryEngine`] implementation.
//!
//! Adding a substrate means making these pass: a quiet network answers
//! lookups, counters only grow and every kernel send is counted in
//! exactly one class ([`counted`]), fixed seeds reproduce exactly, and
//! the lifecycle (join where supported, churn ticks, advance) behaves.
//!
//! The whole suite hangs off one fixture: [`all_specs`] names every
//! engine once, and [`all_prepared`]/[`all_engines`] build them all, so
//! a new substrate gets every test here by adding a single line.

use mpil_harness::{
    run_scenario, DiscoveryEngine, EngineSpec, OverlaySource, PerturbRun, PreparedRun, Scenario,
};
use mpil_id::Id;
use mpil_overlay::NodeIdx;
use mpil_sim::{Counters, Flapping, FlappingConfig, SimDuration};
use mpil_workload::WallClock;

/// Every engine spec the suite exercises — THE list. A substrate added
/// here runs the entire conformance suite.
fn all_specs() -> Vec<EngineSpec> {
    vec![
        EngineSpec::MSPASTRY,
        EngineSpec::Chord,
        EngineSpec::Kademlia { k: 4, alpha: 2 },
        EngineSpec::MPIL_NO_DS,
        EngineSpec::MpilOver(OverlaySource::RandomRegular(8)),
        EngineSpec::GOSSIP_WALK,
        EngineSpec::GOSSIP_RING,
        EngineSpec::PLUMTREE,
        EngineSpec::FOAF,
        EngineSpec::MpilOver(OverlaySource::HyParView { active: 8 }),
    ]
}

fn mini(spec: EngineSpec, probability: f64, seed: u64) -> Scenario {
    let mut run = PerturbRun::new(30, 30, probability);
    run.nodes = 100;
    run.operations = 10;
    run.seed = seed;
    Scenario::new(spec, run)
}

/// Builds every engine converged with its workload — the one fixture
/// behind each test that drives engines directly.
fn all_prepared(probability: f64, seed: u64) -> Vec<(EngineSpec, PreparedRun)> {
    all_specs()
        .into_iter()
        .map(|spec| (spec, mini(spec, probability, seed).build()))
        .collect()
}

/// Just the boxed engines, for lifecycle tests that need no workload.
fn all_engines(seed: u64) -> Vec<(EngineSpec, Box<dyn DiscoveryEngine>)> {
    all_prepared(0.0, seed)
        .into_iter()
        .map(|(spec, prepared)| (spec, prepared.engine))
        .collect()
}

fn counters_monotone(before: &Counters, after: &Counters) -> bool {
    after.lookup_messages >= before.lookup_messages
        && after.insert_messages >= before.insert_messages
        && after.reply_messages >= before.reply_messages
        && after.maintenance_messages >= before.maintenance_messages
        && after.ack_messages >= before.ack_messages
        && after.total_messages >= before.total_messages
}

/// The engine's counters, after checking that every send the kernel
/// saw was counted in exactly one class.
fn counted(engine: &dyn DiscoveryEngine, spec: EngineSpec) -> Counters {
    let c = engine.counters();
    let sent = engine.net_stats().sent;
    assert_eq!(
        (c.class_sum(), c.total_messages),
        (sent, sent),
        "{}: class sum and total against the kernel's sends",
        spec.label()
    );
    c
}

#[test]
fn quiet_network_insert_then_lookup_succeeds_on_every_engine() {
    for spec in all_specs() {
        let r = run_scenario(&mini(spec, 0.0, 11));
        assert!(
            r.success_rate >= 85.0,
            "{}: quiet-network success {}",
            spec.label(),
            r.success_rate
        );
        assert!(
            r.mean_replicas >= 1.0,
            "{}: stored nothing ({})",
            spec.label(),
            r.mean_replicas
        );
    }
}

#[test]
fn counters_are_monotone_through_the_lifecycle_on_every_engine() {
    for (spec, prepared) in all_prepared(0.0, 12) {
        let mut engine = prepared.engine;
        let origin = prepared.origin;
        let at_start = counted(&*engine, spec);

        for &object in &prepared.objects {
            engine.insert(origin, object);
        }
        engine.run_to_quiescence();
        let after_inserts = counted(&*engine, spec);
        assert!(
            counters_monotone(&at_start, &after_inserts),
            "{}: inserts shrank counters",
            spec.label()
        );
        assert!(
            after_inserts.insert_messages > 0,
            "{}: inserts sent nothing",
            spec.label()
        );

        let deadline = engine.now() + SimDuration::from_secs(60);
        engine.issue_lookup(origin, prepared.objects[0], deadline);
        engine.run_until(deadline);
        let after_lookup = counted(&*engine, spec);
        assert!(
            counters_monotone(&after_inserts, &after_lookup),
            "{}: lookup shrank counters",
            spec.label()
        );
        // The lookup either forwarded copies or was answered on the spot
        // by a replica-holding origin (a direct reply).
        assert!(
            after_lookup.lookup_messages > after_inserts.lookup_messages
                || after_lookup.reply_messages > after_inserts.reply_messages,
            "{}: lookup left no trace in the counters",
            spec.label()
        );
        assert!(
            engine.net_stats().sent > 0,
            "{}: kernel saw no sends",
            spec.label()
        );
    }
}

#[test]
fn counter_attribution_stays_honest_under_perturbation_on_every_engine() {
    // Every send must be counted through the full two-stage methodology —
    // maintenance and flapping included — on all engines. Scenario
    // builds always start on AlwaysOn, so the flapping model must be
    // installed here explicitly (mirroring run_scenario's choreography)
    // or the test would quietly run on a fully available network.
    for (spec, prepared) in all_prepared(0.7, 20) {
        let mut engine = prepared.engine;
        let origin = prepared.origin;
        let mut rng = prepared.rng;
        for &object in &prepared.objects {
            engine.insert(origin, object);
        }
        engine.run_to_quiescence();
        engine.start_maintenance();
        let flap_cfg = FlappingConfig::idle_offline_secs(30, 30, 0.7).starting_at(engine.now());
        let mut flap = Flapping::new(flap_cfg, engine.len(), 20 ^ 0xf1a9, &mut rng);
        flap.exempt(origin);
        engine.set_availability(Box::new(flap));
        for &object in &prepared.objects {
            engine.advance(SimDuration::from_secs(60));
            let deadline = engine.now() + SimDuration::from_secs(60);
            engine.issue_lookup(origin, object, deadline);
        }
        engine.advance(SimDuration::from_secs(90));
        assert!(
            engine.net_stats().dropped_offline > 0,
            "{}: the perturbation never bit",
            spec.label()
        );
        let c = counted(&*engine, spec);
        assert!(c.class_sum() > 0, "{}: nothing was counted", spec.label());
    }
}

/// Every [`Counters`] field of every engine in [`all_specs`], exactly,
/// after stage 1 and after stage 2 of one perturbed `mini` scenario:
/// `[lookup, insert, reply, maintenance, ack, total, failure
/// declarations, hop-limit drops, misdeliveries, duplicates seen,
/// duplicates suppressed]`. A send that changes class, appears or
/// vanishes, or a note that does, moves a number here.
#[test]
fn every_counter_is_pinned_on_every_engine() {
    let pinned: [[[u64; 11]; 2]; 10] = [
        [
            [0, 16, 0, 0, 16, 32, 0, 0, 0, 0, 0],
            [52, 16, 9, 63415, 45, 63537, 3764, 0, 2, 0, 0],
        ],
        [
            [0, 30, 0, 0, 30, 60, 0, 0, 0, 0, 0],
            [246, 30, 5, 18038, 8510, 26829, 911, 112, 0, 0, 0],
        ],
        [
            [0, 103, 63, 206, 0, 372, 0, 0, 0, 0, 0],
            [33, 103, 2327, 7007, 0, 9470, 1293, 0, 0, 0, 0],
        ],
        [
            [0, 5518, 0, 0, 0, 5518, 0, 0, 0, 4901, 0],
            [141, 5518, 47, 0, 0, 5706, 0, 0, 0, 4937, 0],
        ],
        [
            [0, 1204, 0, 0, 0, 1204, 0, 0, 0, 862, 0],
            [130, 1204, 42, 0, 0, 1376, 0, 0, 0, 872, 0],
        ],
        [
            [0, 150, 0, 0, 0, 150, 0, 0, 0, 0, 0],
            [147, 150, 24, 21045, 0, 21366, 688, 0, 0, 0, 0],
        ],
        [
            [0, 150, 0, 0, 0, 150, 0, 0, 0, 0, 0],
            [76, 150, 25, 21016, 0, 21267, 701, 0, 0, 0, 0],
        ],
        [
            [0, 3990, 0, 2334, 0, 6324, 0, 0, 0, 0, 0],
            [50, 3990, 39, 24042, 0, 28121, 818, 0, 0, 0, 0],
        ],
        [
            [0, 3990, 0, 2334, 0, 6324, 0, 0, 0, 0, 0],
            [33, 3990, 19, 23954, 0, 27996, 798, 0, 0, 0, 0],
        ],
        [
            [0, 1241, 0, 0, 0, 1241, 0, 0, 0, 901, 0],
            [133, 1241, 40, 0, 0, 1414, 0, 0, 0, 910, 0],
        ],
    ];
    let specs = all_specs();
    assert_eq!(
        specs.len(),
        pinned.len(),
        "all_specs() grew; pin the new engine's counters"
    );
    for (spec, pins) in specs.into_iter().zip(pinned) {
        let scenario = mini(spec, 0.6, 13);
        let mut prepared = scenario.build();
        let read = |engine: &dyn DiscoveryEngine| {
            let c = counted(engine, spec);
            [
                c.lookup_messages,
                c.insert_messages,
                c.reply_messages,
                c.maintenance_messages,
                c.ack_messages,
                c.total_messages,
                c.failure_declarations,
                c.hop_limit_drops,
                c.misdeliveries,
                c.duplicates_seen,
                c.duplicates_suppressed,
            ]
        };
        prepared.insert_all();
        let after_inserts = read(&*prepared.engine);
        let flap_start = prepared.perturb(&scenario.run);
        prepared.lookups(&scenario.run, flap_start);
        let after_lookups = read(&*prepared.engine);
        assert_eq!([after_inserts, after_lookups], pins, "{}", spec.label());
    }
}

#[test]
fn fixed_seed_runs_are_deterministic_on_every_engine() {
    for spec in all_specs() {
        let a = run_scenario(&mini(spec, 0.6, 13));
        let b = run_scenario(&mini(spec, 0.6, 13));
        assert_eq!(a, b, "{}: same seed, different result", spec.label());
    }
}

#[test]
fn different_seeds_usually_differ() {
    // A smoke check that the seed actually reaches the engines: across
    // all engines at heavy flapping, at least one metric must move
    // between two seeds.
    let mut any_difference = false;
    for spec in all_specs() {
        let a = run_scenario(&mini(spec, 0.9, 14));
        let b = run_scenario(&mini(spec, 0.9, 15));
        if a != b {
            any_difference = true;
        }
    }
    assert!(any_difference, "seeds appear to be ignored");
}

#[test]
fn lookup_outcome_is_failed_for_unknown_objects_on_every_engine() {
    for (spec, prepared) in all_prepared(0.0, 16) {
        let mut engine = prepared.engine;
        let origin = prepared.origin;
        // No insert at all: a lookup for a random object must fail (the
        // engine may route it, but nothing holds it).
        let absent = Id::from_low_u64(0xdead_0000_0001);
        let deadline = engine.now() + SimDuration::from_secs(60);
        let handle = engine.issue_lookup(origin, absent, deadline);
        engine.run_until(deadline + SimDuration::from_secs(30));
        assert!(
            !engine.lookup_outcome(handle).is_success(),
            "{}: found an object nobody stored",
            spec.label()
        );
    }
}

#[test]
fn join_is_supported_exactly_where_the_protocol_has_one() {
    let expectations = [
        true, true, false, false, false, true, true, true, true, false,
    ];
    let engines = all_engines(17);
    // zip() truncates silently: a spec added to all_specs() without a
    // matching expectation here must fail loudly, not skip the test.
    assert_eq!(
        engines.len(),
        expectations.len(),
        "all_specs() grew; add the new engine's join expectation"
    );
    for ((spec, mut engine), expect_join) in engines.into_iter().zip(expectations) {
        let supported = engine.join(NodeIdx::new(1), NodeIdx::new(0));
        assert_eq!(
            supported,
            expect_join,
            "{}: join support mismatch",
            spec.label()
        );
        // A join request must never wedge the engine.
        engine.advance(SimDuration::from_secs(10));
    }
}

#[test]
fn advance_moves_the_clock() {
    for (spec, mut engine) in all_engines(18) {
        let t0 = engine.now();
        engine.advance(SimDuration::from_secs(60));
        assert_eq!(
            engine.now(),
            t0 + SimDuration::from_secs(60),
            "{}: advance did not reach the period boundary",
            spec.label()
        );
        engine.advance(SimDuration::from_secs(5));
        assert_eq!(
            engine.now(),
            t0 + SimDuration::from_secs(65),
            "{}: advance drifted",
            spec.label()
        );
    }
}

/// Scale smoke: every engine must build converged, insert, settle, and
/// resolve lookups at `nodes` nodes inside `budget` wall-clock. Lookup
/// *success* is deliberately not asserted — a k-random-walk over 10k
/// nodes legitimately misses — but the lifecycle and the count of every
/// send ([`counted`]) must hold at any size, and nothing may wedge.
fn scale_smoke(nodes: usize, budget: std::time::Duration) {
    for spec in all_specs() {
        let clock = WallClock::start();
        let mut run = PerturbRun::new(30, 30, 0.0);
        run.nodes = nodes;
        run.operations = 3;
        run.seed = 21;
        let prepared = Scenario::new(spec, run).build();
        let mut engine = prepared.engine;
        assert_eq!(engine.len(), nodes, "{}: wrong size", spec.label());
        let origin = prepared.origin;
        for &object in &prepared.objects {
            engine.insert(origin, object);
        }
        engine.run_to_quiescence();
        let after_inserts = counted(&*engine, spec);
        assert!(
            after_inserts.insert_messages > 0,
            "{}: inserts sent nothing",
            spec.label()
        );
        let deadline = engine.now() + SimDuration::from_secs(60);
        let handles: Vec<_> = prepared
            .objects
            .iter()
            .map(|&object| engine.issue_lookup(origin, object, deadline))
            .collect();
        engine.run_until(deadline);
        let after_lookups = counted(&*engine, spec);
        assert!(
            counters_monotone(&after_inserts, &after_lookups),
            "{}: lookups shrank counters",
            spec.label()
        );
        for &handle in &handles {
            // Every handle must resolve to a definite outcome.
            let _ = engine.lookup_outcome(handle);
        }
        let took = clock.elapsed();
        assert!(
            took < budget,
            "{}: {nodes}-node smoke took {took:?} (budget {budget:?})",
            spec.label()
        );
    }
}

#[test]
fn ten_thousand_node_smoke_stays_inside_budget_on_every_engine() {
    scale_smoke(10_000, std::time::Duration::from_secs(150));
}

#[test]
#[ignore = "large: run explicitly with -- --ignored, release profile recommended"]
fn hundred_thousand_node_smoke_on_every_engine() {
    scale_smoke(100_000, std::time::Duration::from_secs(1800));
}

#[test]
fn engine_names_and_sizes_are_reported() {
    let expected = [
        "MSPastry", "Chord", "Kademlia", "MPIL", "MPIL", "Gossip", "Gossip", "Plumtree", "FOAF",
        "MPIL",
    ];
    let engines = all_engines(19);
    assert_eq!(
        engines.len(),
        expected.len(),
        "all_specs() grew; add the new engine's expected name"
    );
    for ((spec, engine), name) in engines.into_iter().zip(expected) {
        assert_eq!(engine.name(), name, "{}", spec.label());
        assert_eq!(engine.len(), 100);
        assert!(!engine.is_empty());
    }
}
