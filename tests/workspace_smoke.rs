//! Workspace wiring smoke test: every umbrella re-export must be
//! reachable through `mpil_suite`, and one cross-crate end-to-end run
//! (overlay generation → MPIL over the discrete-event sim) must succeed.
//!
//! This is the cheapest possible guard against manifest regressions —
//! a member crate dropped from the root `[dependencies]`, or a renamed
//! lib target, fails this file at compile time before any deeper test
//! runs.

use mpil_suite::mpil::{DynamicConfig, DynamicNetwork, LookupStatus, MpilConfig};
use mpil_suite::mpil_id::Id;
use mpil_suite::mpil_overlay::{generators, NodeIdx};
use mpil_suite::mpil_sim::{AlwaysOn, ConstantLatency, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Touches one symbol from every crate the umbrella re-exports; holding
/// them in one array keeps the list in sync with `src/lib.rs` by
/// inspection (10 member crates; `mpil-bench` and `mpil-cli` are
/// dev-dependencies exercised by their own test suites).
#[test]
fn every_umbrella_reexport_is_reachable() {
    let reachable = [
        ("mpil", {
            MpilConfig::default().validate().expect("default config");
            true
        }),
        ("mpil_id", {
            mpil_suite::mpil_id::Id::from_low_u64(1) != mpil_suite::mpil_id::Id::from_low_u64(2)
        }),
        ("mpil_overlay", {
            let mut rng = SmallRng::seed_from_u64(1);
            generators::random_regular(16, 4, &mut rng).is_ok()
        }),
        ("mpil_sim", SimTime::ZERO.as_micros() == 0),
        (
            "mpil_chord",
            mpil_suite::mpil_chord::ChordConfig::default().replication >= 1,
        ),
        (
            "mpil_kademlia",
            mpil_suite::mpil_kademlia::KademliaConfig::default().k >= 1,
        ),
        (
            "mpil_pastry",
            !mpil_suite::mpil_pastry::PastryConfig::default().replication_on_route,
        ),
        ("mpil_gossip", {
            let config = mpil_suite::mpil_gossip::EpidemicConfig::default();
            config.assert_valid();
            config.active_size >= 1
        }),
        ("mpil_net", mpil_suite::mpil_net::WIRE_VERSION >= 1),
        ("mpil_analysis", {
            let model = mpil_suite::mpil_analysis::AnalysisModel::base4();
            model.expected_local_maxima_regular(1000, 8) > 0.0
        }),
        ("mpil_workload", {
            let mut stats = mpil_suite::mpil_workload::RunningStats::new();
            stats.push(1.0);
            stats.count() == 1
        }),
        (
            "mpil_harness",
            mpil_suite::mpil_harness::EngineSpec::Chord.label() == "Chord",
        ),
    ];
    for (name, ok) in reachable {
        assert!(ok, "umbrella re-export `{name}` misbehaved");
    }
}

/// One full cross-crate path: generate an overlay with `mpil_overlay`,
/// drive MPIL over the `mpil_sim` event kernel, and observe a
/// successful lookup for an object inserted from a different node.
#[test]
fn overlay_to_sim_lookup_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(42);
    let topo = generators::random_regular(64, 6, &mut rng).expect("generate overlay");

    let config = DynamicConfig {
        mpil: MpilConfig::default()
            .with_max_flows(10)
            .with_num_replicas(5),
        heartbeat_period: None,
    };
    let mut net = DynamicNetwork::new(
        topo.into_parts(),
        config,
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(10))),
        7,
    );

    let object = Id::from_low_u64(0xcafe);
    net.insert(NodeIdx::new(0), object);
    net.run_to_quiescence();

    let deadline = SimTime::from_secs(3600);
    let lookup = net.issue_lookup(NodeIdx::new(33), object, deadline);
    net.run_until(deadline);
    // hops == 0 is legal: with 5 replicas on 64 nodes the querier itself
    // may hold one, so only the success of the lookup is asserted.
    match net.lookup_outcome(lookup) {
        LookupStatus::Succeeded { .. } => {}
        other => panic!("lookup did not succeed on a healthy overlay: {other:?}"),
    }
}
