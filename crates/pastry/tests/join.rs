//! Integration tests of the Pastry join protocol: nodes entering an
//! already-converged overlay through the wire protocol only.

use mpil_id::{ring_distance, Id};
use mpil_overlay::{random_ids, NodeIdx};
use mpil_pastry::build_converged_states_partial;
use mpil_pastry::{LookupOutcome, PastryConfig, PastrySim};
use mpil_sim::{AlwaysOn, ConstantLatency, Counters, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a sim where the last `unjoined` nodes start blank.
fn build(n: usize, unjoined: usize, seed: u64) -> PastrySim {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let members: Vec<bool> = (0..n).map(|i| i < n - unjoined).collect();
    let states = build_converged_states_partial(&ids, Some(&members), &mut rng);
    PastrySim::new(
        (ids, states),
        PastryConfig::default(),
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(20))),
        seed,
    )
}

#[test]
fn joiner_learns_its_ring_neighbors() {
    let n = 80;
    let mut sim = build(n, 1, 1);
    let joiner = NodeIdx::new((n - 1) as u32);
    assert!(
        sim.neighbor_lists()[joiner.index()].is_empty(),
        "starts blank"
    );

    sim.join(joiner, NodeIdx::new(0));
    sim.run_to_quiescence();

    // The joiner's leaf set must contain the true nearest members on the
    // ring (its announcement probes make them mutual).
    let ids = sim.ids().to_vec();
    let jid = ids[joiner.index()];
    let mut others: Vec<usize> = (0..n - 1).collect();
    others.sort_by_key(|&i| ring_distance(ids[i], jid));
    let nearest = others[0];
    let neighbors = &sim.neighbor_lists()[joiner.index()];
    assert!(
        neighbors.contains(&NodeIdx::new(nearest as u32)),
        "joiner must know its closest ring neighbor"
    );
    assert!(
        neighbors.len() >= 8,
        "joiner should have filled its leaf set, got {}",
        neighbors.len()
    );
    // ...and the closest member must know the joiner back.
    assert!(
        sim.neighbor_lists()[nearest].contains(&joiner),
        "ring neighbor must have admitted the joiner"
    );
}

#[test]
fn objects_rooted_at_the_joiner_become_findable() {
    let n = 60;
    let mut sim = build(n, 1, 2);
    let joiner = NodeIdx::new((n - 1) as u32);
    sim.join(joiner, NodeIdx::new(3));
    sim.run_to_quiescence();

    // An object whose key equals the joiner's ID roots at the joiner.
    let object = sim.ids()[joiner.index()];
    sim.insert(NodeIdx::new(5), object);
    sim.run_to_quiescence();
    let holders = sim.replica_holders(object);
    assert_eq!(holders, vec![joiner], "the joiner is the key's root");

    let deadline = sim.now() + SimDuration::from_secs(60);
    let lk = sim.issue_lookup(NodeIdx::new(40), object, deadline);
    sim.run_to_quiescence();
    assert!(
        matches!(sim.lookup_outcome(lk), LookupOutcome::Succeeded { .. }),
        "lookup should reach the joined node"
    );
}

#[test]
fn multiple_sequential_joins_converge() {
    let n = 70;
    let k = 5;
    let mut sim = build(n, k, 3);
    let mut rng = SmallRng::seed_from_u64(9);
    for j in (n - k)..n {
        let bootstrap = NodeIdx::new(rng.gen_range(0..(n - k) as u32));
        sim.join(NodeIdx::new(j as u32), bootstrap);
        sim.run_to_quiescence();
    }
    // All joiners have populated state.
    let lists = sim.neighbor_lists();
    for (j, list) in lists.iter().enumerate().take(n).skip(n - k) {
        assert!(
            list.len() >= 8,
            "joiner {j} has only {} neighbors",
            list.len()
        );
    }
    // Random lookups over objects inserted post-join all succeed.
    let mut objects = Vec::new();
    for _ in 0..20 {
        let object = Id::random(&mut rng);
        sim.insert(NodeIdx::new(rng.gen_range(0..n as u32)), object);
        objects.push(object);
    }
    sim.run_to_quiescence();
    let mut lookups = Vec::new();
    for &object in &objects {
        let deadline = sim.now() + SimDuration::from_secs(60);
        lookups.push(sim.issue_lookup(NodeIdx::new(rng.gen_range(0..n as u32)), object, deadline));
    }
    sim.run_to_quiescence();
    let ok = lookups
        .iter()
        .filter(|&&lk| matches!(sim.lookup_outcome(lk), LookupOutcome::Succeeded { .. }))
        .count();
    assert_eq!(ok, objects.len(), "all post-join lookups succeed");
    // No other pinned count drives a join (MAX_HOPS bounds its route):
    // hold its sends exactly.
    assert_eq!(
        sim.counters(),
        Counters {
            lookup_messages: 34,
            insert_messages: 31,
            reply_messages: 20,
            maintenance_messages: 238,
            ack_messages: 65,
            total_messages: 388,
            ..Counters::default()
        }
    );
}

#[test]
fn unjoined_nodes_do_not_disturb_the_overlay() {
    let n = 50;
    let mut sim = build(n, 2, 4);
    let mut rng = SmallRng::seed_from_u64(11);
    // Without joining, lookups among members behave normally.
    let object = Id::random(&mut rng);
    sim.insert(NodeIdx::new(0), object);
    sim.run_to_quiescence();
    let deadline = sim.now() + SimDuration::from_secs(60);
    let lk = sim.issue_lookup(NodeIdx::new(7), object, deadline);
    sim.run_to_quiescence();
    assert!(matches!(
        sim.lookup_outcome(lk),
        LookupOutcome::Succeeded { .. }
    ));
    // The blank nodes never appear in members' tables.
    let lists = sim.neighbor_lists();
    for list in lists.iter().take(n - 2) {
        assert!(list.iter().all(|&x| x.index() < n - 2));
    }
}
