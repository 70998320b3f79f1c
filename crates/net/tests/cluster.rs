//! End-to-end tests of the live cluster: real threads, real transports,
//! the paper's algorithm outside the simulator.

use std::time::Duration;

use mpil::{MessageKind, MpilConfig};
use mpil_id::Id;
use mpil_net::{LiveClusterBuilder, TransportKind};
use mpil_overlay::{generators, NodeIdx};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn topo(n: usize, d: usize, seed: u64) -> mpil_overlay::Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    generators::random_regular(n, d, &mut rng).expect("generator")
}

#[test]
fn channel_cluster_inserts_and_finds() {
    let topo = topo(48, 8, 1);
    let mut cluster = LiveClusterBuilder::new()
        .config(
            MpilConfig::default()
                .with_max_flows(10)
                .with_num_replicas(3),
        )
        .spawn(&topo)
        .expect("spawn");
    let mut rng = SmallRng::seed_from_u64(9);
    let objects: Vec<Id> = (0..10).map(|_| Id::random(&mut rng)).collect();
    for &o in &objects {
        let holders = cluster.insert(NodeIdx::new(0), o, Duration::from_millis(400));
        assert!(
            !holders.is_empty(),
            "insert must deposit at least one replica"
        );
    }
    for (i, &o) in objects.iter().enumerate() {
        let origin = NodeIdx::new((i % 48) as u32);
        let hit = cluster.lookup(origin, o, Duration::from_secs(3));
        assert!(hit.is_some(), "lookup {i} failed on a healthy cluster");
    }
    let stats = cluster.shutdown();
    let total_stores: u64 = stats.iter().map(|s| s.stores).sum();
    assert!(total_stores >= 10, "replicas must have been deposited");
}

/// Cross-engine invariant: replicas may only ever sit at *local maxima*
/// of the routing metric (Section 4.4). The live node's step logic must
/// agree with the simulators' on this graph property, regardless of
/// thread scheduling.
#[test]
fn live_replica_holders_are_local_maxima() {
    let topo = topo(36, 6, 8);
    let config = MpilConfig::default()
        .with_max_flows(12)
        .with_num_replicas(4);
    let mut cluster = LiveClusterBuilder::new()
        .config(config)
        .spawn(&topo)
        .expect("spawn");
    let mut rng = SmallRng::seed_from_u64(21);
    for _ in 0..6 {
        let object = Id::random(&mut rng);
        let holders = cluster.insert(NodeIdx::new(0), object, Duration::from_millis(400));
        assert!(!holders.is_empty());
        for h in holders {
            let decision = mpil::routing_decision(
                config.space,
                object,
                h,
                topo.neighbors(h),
                topo.ids(),
                |_| false,
            );
            assert!(
                decision.is_local_max,
                "live node {h} stored a replica but is not a local maximum"
            );
        }
    }
    cluster.shutdown();
}

#[test]
fn lookup_of_absent_object_times_out() {
    let topo = topo(24, 6, 2);
    let mut cluster = LiveClusterBuilder::new().spawn(&topo).expect("spawn");
    let miss = cluster.lookup(
        NodeIdx::new(3),
        Id::from_low_u64(0xdead),
        Duration::from_millis(600),
    );
    assert!(miss.is_none());
    cluster.shutdown();
}

#[test]
fn perturbed_minority_does_not_stop_lookups() {
    let topo = topo(40, 8, 3);
    let mut cluster = LiveClusterBuilder::new()
        .config(
            MpilConfig::default()
                .with_max_flows(10)
                .with_num_replicas(5),
        )
        .spawn(&topo)
        .expect("spawn");
    let mut rng = SmallRng::seed_from_u64(10);
    let objects: Vec<Id> = (0..8).map(|_| Id::random(&mut rng)).collect();
    for &o in &objects {
        let holders = cluster.insert(NodeIdx::new(0), o, Duration::from_millis(400));
        assert!(!holders.is_empty());
    }
    // Perturb a quarter of the nodes (never the entry node).
    for i in (4..40).step_by(4) {
        cluster.perturb(NodeIdx::new(i), Duration::from_secs(30));
    }
    let mut ok = 0;
    for &o in &objects {
        if cluster
            .lookup(NodeIdx::new(0), o, Duration::from_secs(3))
            .is_some()
        {
            ok += 1;
        }
    }
    assert!(
        ok >= 6,
        "multi-flow redundancy should ride out a perturbed minority, got {ok}/8"
    );
    let stats = cluster.shutdown();
    let dropped: u64 = stats.iter().map(|s| s.dropped_perturbed).sum();
    assert!(
        dropped > 0,
        "perturbed nodes must actually have dropped frames"
    );
}

#[test]
fn heal_restores_a_perturbed_node() {
    let topo = topo(16, 4, 4);
    let mut cluster = LiveClusterBuilder::new().spawn(&topo).expect("spawn");
    let object = Id::from_low_u64(0xabc);
    let holders = cluster.insert(NodeIdx::new(0), object, Duration::from_millis(400));
    assert!(!holders.is_empty());
    // Perturb every holder: lookups should mostly fail...
    for &h in &holders {
        cluster.perturb(h, Duration::from_secs(60));
    }
    let blocked = cluster.lookup(NodeIdx::new(1), object, Duration::from_millis(700));
    // ...then heal and retry: must succeed.
    for &h in &holders {
        cluster.heal(h);
    }
    let healed = cluster.lookup(NodeIdx::new(1), object, Duration::from_secs(3));
    assert!(healed.is_some(), "healed holders must answer again");
    // The blocked attempt may occasionally succeed if a non-holder
    // forwarded slowly; only the healed one is asserted.
    let _ = blocked;
    cluster.shutdown();
}

#[test]
fn udp_cluster_end_to_end() {
    let topo = topo(16, 4, 5);
    let mut cluster = LiveClusterBuilder::new()
        .transport(TransportKind::Udp)
        .config(MpilConfig::default().with_max_flows(8).with_num_replicas(3))
        .spawn(&topo)
        .expect("bind loopback mesh");
    let object = Id::from_low_u64(0x1234);
    let holders = cluster.insert(NodeIdx::new(0), object, Duration::from_millis(600));
    assert!(!holders.is_empty(), "UDP insert must deposit replicas");
    let hit = cluster.lookup(NodeIdx::new(7), object, Duration::from_secs(3));
    assert!(hit.is_some(), "UDP lookup must succeed");
    cluster.shutdown();
}

/// Shutting down mid-lookup must *drain*: in-flight requests submitted
/// through the pipelined API are still answered before the shard threads
/// exit, and nothing is counted as dropped at the drain deadline.
#[test]
fn shutdown_drains_in_flight_lookups() {
    let topo = topo(32, 6, 12);
    let mut cluster = LiveClusterBuilder::new()
        .config(MpilConfig::default().with_max_flows(8).with_num_replicas(3))
        .spawn(&topo)
        .expect("spawn");
    let object = Id::from_low_u64(0xfee1);
    let holders = cluster.insert(NodeIdx::new(0), object, Duration::from_millis(400));
    assert!(!holders.is_empty());

    // Pipeline a batch of lookups and shut down while they are in
    // flight — do NOT wait for the replies.
    const LOOKUPS: u64 = 5;
    for i in 0..LOOKUPS {
        cluster
            .submit(MessageKind::Lookup, NodeIdx::new((i % 32) as u32), object)
            .expect("submit");
    }
    let stats = cluster.shutdown_drain(Duration::from_secs(5));

    let replies: u64 = stats.iter().map(|s| s.replies).sum();
    let dropped: u64 = stats.iter().map(|s| s.dropped_at_drain).sum();
    assert!(
        replies >= LOOKUPS,
        "drain must let in-flight lookups finish (got {replies} replies for {LOOKUPS} lookups)"
    );
    assert_eq!(dropped, 0, "a generous drain deadline must not drop frames");
}

/// The other side of the drain contract: a zero deadline sweeps what is
/// still queued and reports it, instead of hanging or losing frames
/// silently.
#[test]
fn zero_drain_shutdown_reports_dropped_frames() {
    let topo = topo(32, 6, 13);
    let mut cluster = LiveClusterBuilder::new()
        .config(MpilConfig::default().with_max_flows(8).with_num_replicas(3))
        .spawn(&topo)
        .expect("spawn");
    // Flood one entry node's queue, then shut down with no drain
    // budget at all: the sweep must account for the backlog.
    let object = Id::from_low_u64(0xfee2);
    for _ in 0..300 {
        cluster
            .submit(MessageKind::Lookup, NodeIdx::new(0), object)
            .expect("submit");
    }
    let stats = cluster.shutdown_drain(Duration::ZERO);
    let dropped: u64 = stats.iter().map(|s| s.dropped_at_drain).sum();
    assert!(
        dropped > 0,
        "zero-deadline drain must count the swept backlog"
    );
}

#[test]
fn shutdown_returns_stats_for_every_node() {
    let topo = topo(12, 4, 6);
    let cluster = LiveClusterBuilder::new().spawn(&topo).expect("spawn");
    let stats = cluster.shutdown();
    assert_eq!(stats.len(), 12);
}

/// A cluster spawned with a sink of its own pushes every client-bound
/// event there, from its reader thread, and has nothing to poll.
#[test]
fn events_are_pushed_to_a_custom_sink() {
    use mpil_net::{ClientEvent, TransportError};

    let topo = topo(16, 4, 14);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut cluster = LiveClusterBuilder::new()
        .spawn_with_sink(&topo, move |event| tx.send(event).is_ok())
        .expect("spawn");
    let object = Id::from_low_u64(0x51);
    let insert = cluster
        .submit(MessageKind::Insert, NodeIdx::new(0), object)
        .expect("submit");
    match rx.recv_timeout(Duration::from_secs(5)).expect("store-ack") {
        ClientEvent::StoreAck { msg_id, .. } => assert_eq!(msg_id, insert),
        other => panic!("expected a store-ack, got {other:?}"),
    }
    let lookup = cluster
        .submit(MessageKind::Lookup, NodeIdx::new(5), object)
        .expect("submit");
    loop {
        match rx.recv_timeout(Duration::from_secs(5)).expect("reply") {
            ClientEvent::Reply { msg_id, .. } => {
                assert_eq!(msg_id, lookup);
                break;
            }
            ClientEvent::StoreAck { .. } => continue, // the insert's other replicas
        }
    }
    assert!(matches!(
        cluster.poll_event(Duration::from_millis(10)),
        Err(TransportError::Disconnected)
    ));
    cluster.shutdown();
    // The reader was joined and the sink dropped with it: once the
    // replicas' remaining store-acks are read, the channel is closed.
    while rx.try_recv().is_ok() {}
    assert_eq!(
        rx.try_recv(),
        Err(std::sync::mpsc::TryRecvError::Disconnected)
    );
}
