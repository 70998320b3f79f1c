//! Conformance test for the allocation-free message plane: a warmed-up
//! 10k-node epidemic overlay must run its steady-state shuffle rounds,
//! broadcasts and lookups with (almost) no heap allocations.
//!
//! This binary installs [`mpil_alloc::CountingAlloc`] as its global
//! allocator, so the assertion measures the real thing — every `malloc`
//! the process performs — not a proxy. The budget is deliberately a
//! hair above zero: every message is a fixed-size value (a shuffle's
//! peers ride inline in it) in a wheel slot whose buffer is reused, so
//! the message plane is allocation-free by construction, but rare cold
//! paths (a suspicion map's first insert for a node, a wheel slot
//! growing past its warmed capacity) are allowed a trickle. The bound of 0.01 allocations per shuffle round
//! is ~500x below the two-allocations-per-message plane this replaced.
//!
//! The allocator's counters are process-global, and `cargo test` runs
//! the tests of one binary on several threads: a measured window would
//! be charged with whatever a neighbouring test allocates while
//! building its 10k-node overlay. Every test therefore holds [`SERIAL`]
//! for its whole body.

use std::sync::{Mutex, MutexGuard, PoisonError};

use mpil_gossip::{build_converged_membership, EpidemicConfig, EpidemicSim, LookupStrategy};
use mpil_id::Id;
use mpil_overlay::NodeIdx;
use mpil_sim::{AlwaysOn, SimDuration, UniformLatency};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: mpil_alloc::CountingAlloc = mpil_alloc::CountingAlloc;

/// One test at a time (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a test that failed while holding it must not fail
/// the others too, so poisoning is ignored.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn warmed_up_epidemic_rounds_allocate_nothing() {
    let _serial = serial();
    assert_warm_rounds_allocate_nothing(EpidemicConfig::default());
}

#[test]
fn warmed_up_shuffle_rounds_allocate_nothing() {
    let _serial = serial();
    // The `gossip` system's views (active 8, passive 24): the active
    // view sits at the inline storage bound and the shuffle exchange at
    // its widest.
    assert_warm_rounds_allocate_nothing(
        EpidemicConfig::default()
            .with_views(8, 24)
            .with_strategy(LookupStrategy::KRandomWalk),
    );
}

/// Once the timer wheel and per-node maps are warm, the combined
/// shuffle + NEIGHBOR control plane must not allocate.
fn assert_warm_rounds_allocate_nothing(config: EpidemicConfig) {
    const NODES: usize = 10_000;
    let mut rng = SmallRng::seed_from_u64(7);
    let members =
        build_converged_membership(NODES, config.active_size, config.passive_size, &mut rng);
    let mut sim = EpidemicSim::new(
        members,
        config,
        Box::new(AlwaysOn),
        Box::new(UniformLatency::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(80),
        )),
        7,
    );
    sim.start_maintenance();

    let warmup_periods = 4u64;
    sim.run_until(sim.now() + config.gossip_period * warmup_periods);

    let measured_periods = 10u64;
    let before = mpil_alloc::snapshot();
    sim.run_until(sim.now() + config.gossip_period * measured_periods);
    let delta = mpil_alloc::snapshot().since(before);

    let rounds = NODES as u64 * measured_periods;
    let per_round = delta.allocs as f64 / rounds as f64;
    assert!(
        per_round < 0.01,
        "steady-state epidemic rounds allocate: {} allocations over {} rounds \
         ({per_round:.4}/round, {} bytes)",
        delta.allocs,
        rounds,
        delta.bytes,
    );
}

#[test]
fn warmed_up_plumtree_broadcasts_and_lookups_stay_on_the_pooled_plane() {
    let _serial = serial();
    // The dissemination plane: Gossip/IHave/Graft/Prune broadcasts and
    // Query/Reply lookups are fixed-size events in reused wheel slots,
    // so a warmed overlay must push announcements and answer lookups
    // with only a trickle of allocations (lookup-table growth amortized
    // across hundreds of thousands of kernel sends).
    const NODES: usize = 10_000;
    let config = EpidemicConfig::default();
    let mut rng = SmallRng::seed_from_u64(9);
    let members =
        build_converged_membership(NODES, config.active_size, config.passive_size, &mut rng);
    let mut sim = EpidemicSim::new(
        members,
        config,
        Box::new(AlwaysOn),
        Box::new(UniformLatency::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(80),
        )),
        9,
    );
    let origin = NodeIdx::new(0);
    let mut object_rng = SmallRng::seed_from_u64(10);
    let mut workload = |sim: &mut EpidemicSim, objects: usize| {
        for _ in 0..objects {
            let object = Id::random(&mut object_rng);
            sim.insert(origin, object);
            sim.run_to_quiescence();
            let deadline = sim.now() + SimDuration::from_secs(600);
            sim.issue_lookup(origin, object, deadline);
            sim.run_to_quiescence();
        }
    };

    // Warmup: prune the eager graph to its tree and grow every map.
    // 13 objects push every node's store table past its 2->4->8->16->32 slot
    // doublings, so the measured window (10 more objects, ending at 23
    // entries) sits entirely inside the warmed 32-slot capacity.
    workload(&mut sim, 13);

    let before_alloc = mpil_alloc::snapshot();
    let before_sent = sim.net_stats().sent;
    workload(&mut sim, 10);
    let delta = mpil_alloc::snapshot().since(before_alloc);
    let sent = sim.net_stats().sent - before_sent;

    assert!(
        sent > 50_000,
        "workload too small to measure ({sent} sends)"
    );
    let per_message = delta.allocs as f64 / sent as f64;
    assert!(
        per_message < 0.01,
        "broadcast/lookup plane allocates: {} allocations over {} sends \
         ({per_message:.4}/message, {} bytes)",
        delta.allocs,
        sent,
        delta.bytes,
    );
}
