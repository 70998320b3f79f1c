//! The static and the simulated MPIL router are the same router.
//!
//! Both call the one routing step ([`mpil::step`]) and differ only in
//! their worlds: [`StaticEngine`] runs a FIFO queue and meets duplicates
//! where a copy is enqueued; [`DynamicNetwork`] sends through the
//! kernel and meets them at reception. On a quiet network with constant
//! latency the kernel delivers in hop order and breaks ties in send
//! order — the FIFO order — and both draw tie subsets from a `SmallRng`
//! of the same seed, so every operation must place the same replicas,
//! forward the same number of copies, and find the same objects.

use mpil::{DynamicConfig, DynamicNetwork, LookupStatus, MpilConfig, StaticEngine};
use mpil_id::Id;
use mpil_overlay::{generators, NodeIdx, Topology};
use mpil_sim::{AlwaysOn, ConstantLatency, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 200;
const OPERATIONS: usize = 50;
const SEED: u64 = 11;

fn topology() -> Topology {
    let mut rng = SmallRng::seed_from_u64(SEED);
    generators::random_regular(NODES, 10, &mut rng).expect("a 10-regular graph on 200 nodes")
}

fn same_answers(duplicate_suppression: bool) {
    let topo = topology();
    // Few enough flows that ties are cut by the RNG, many enough
    // replicas that flows cross.
    let config = MpilConfig::default()
        .with_max_flows(4)
        .with_num_replicas(3)
        .with_duplicate_suppression(duplicate_suppression);
    let mut fixed = StaticEngine::new(&topo, config, SEED);
    let mut simulated = DynamicNetwork::new(
        topo.clone().into_parts(),
        DynamicConfig {
            mpil: config,
            heartbeat_period: None,
        },
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(20))),
        SEED,
    );

    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xd1ff);
    let mut node = move || NodeIdx::new(rng.gen_range(0..NODES as u32));
    let mut id_rng = SmallRng::seed_from_u64(SEED ^ 0x1d);
    let objects: Vec<Id> = (0..OPERATIONS).map(|_| Id::random(&mut id_rng)).collect();

    for &object in &objects {
        let origin = node();
        let report = fixed.insert(origin, object);
        let before = simulated.counters();
        simulated.insert(origin, object);
        simulated.run_to_quiescence();
        let after = simulated.counters();
        assert_eq!(
            simulated.replica_holders(object),
            fixed.replica_holders(object),
            "holders of {object:?}"
        );
        assert_eq!(
            after.insert_messages - before.insert_messages,
            report.messages,
            "insert forwards of {object:?}"
        );
        assert_eq!(
            after.duplicates_seen - before.duplicates_seen,
            report.duplicates,
            "duplicates of {object:?}"
        );
    }

    // Half the lookups are for objects nobody inserted.
    let absent = (0..OPERATIONS / 2).map(|_| Id::random(&mut id_rng));
    let wanted: Vec<Id> = objects[..OPERATIONS / 2]
        .iter()
        .copied()
        .chain(absent)
        .collect();
    let mut found = 0;
    for &object in &wanted {
        let origin = node();
        let report = fixed.lookup(origin, object);
        let before = simulated.counters();
        let deadline = simulated.now() + SimDuration::from_secs(60);
        let lookup = simulated.issue_lookup(origin, object, deadline);
        simulated.run_to_quiescence();
        let after = simulated.counters();
        let first_reply_hops = match simulated.lookup_outcome(lookup) {
            LookupStatus::Succeeded { hops, .. } => Some(hops),
            _ => None,
        };
        assert_eq!(first_reply_hops, report.first_reply_hops, "{object:?}");
        assert_eq!(
            after.lookup_messages - before.lookup_messages,
            report.messages,
            "lookup forwards of {object:?}"
        );
        found += usize::from(report.success);
    }
    assert!(
        (1..wanted.len()).contains(&found),
        "the lookups must hit and miss: {found} of {} found",
        wanted.len()
    );
    if !duplicate_suppression {
        assert_eq!(simulated.counters().duplicates_suppressed, 0);
    }
}

#[test]
fn static_and_simulated_routers_agree_with_duplicate_suppression() {
    same_answers(true);
}

#[test]
fn static_and_simulated_routers_agree_without_duplicate_suppression() {
    same_answers(false);
}
