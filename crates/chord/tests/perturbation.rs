//! Chord under the paper's flapping perturbation, and MPIL routing over
//! the frozen Chord overlay — extending Section 6.2's experiment to a
//! second structured topology.

use mpil_chord::{build_converged_states, ChordConfig, ChordSim, LookupOutcome};
use mpil_id::Id;
use mpil_overlay::{random_ids, NodeIdx};
use mpil_sim::{AlwaysOn, ConstantLatency, Flapping, FlappingConfig, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 200;
const OBJECTS: usize = 40;

fn build_sim(seed: u64, config: ChordConfig) -> (ChordSim, Vec<Id>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = random_ids(N, &mut rng);
    let states = build_converged_states(&ids);
    let sim = ChordSim::new(
        (ids.clone(), states),
        config,
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(20))),
        seed,
    );
    (sim, ids)
}

/// Runs stage 1 (static inserts) then stage 2 (flapping lookups),
/// returning the success rate in percent.
fn chord_success_under_flapping(probability: f64, seed: u64) -> f64 {
    let config = ChordConfig::default();
    let (mut sim, _ids) = build_sim(seed, config);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbeef);
    let origin = NodeIdx::new(0);
    let objects: Vec<Id> = (0..OBJECTS).map(|_| Id::random(&mut rng)).collect();
    for &o in &objects {
        sim.insert(origin, o);
    }
    sim.run_to_quiescence();

    // Stage 2: flapping (origin exempt), maintenance on, one lookup per
    // period as in Section 3.
    let flap = FlappingConfig::idle_offline_secs(30, 30, probability);
    let period = flap.period();
    let mut model = Flapping::new(flap, N, seed ^ 0x5a5a, &mut rng);
    model.exempt(origin);
    sim.set_availability(Box::new(model));
    sim.start_maintenance();
    // Let every node enter its flapping regime first.
    sim.run_until(sim.now() + period);

    let mut ok = 0usize;
    let mut handles = Vec::new();
    for &o in &objects {
        let deadline = sim.now() + SimDuration::from_secs(60).min(period);
        handles.push((sim.issue_lookup(origin, o, deadline), deadline));
        let next = sim.now() + period;
        sim.run_until(next);
    }
    for (h, _) in handles {
        if matches!(sim.lookup_outcome(h), LookupOutcome::Succeeded { .. }) {
            ok += 1;
        }
    }
    100.0 * ok as f64 / OBJECTS as f64
}

#[test]
fn chord_is_near_perfect_without_perturbation() {
    let rate = chord_success_under_flapping(0.0, 42);
    assert!(rate >= 97.5, "static ring must succeed, got {rate}%");
}

#[test]
fn chord_degrades_with_perturbation() {
    let low = chord_success_under_flapping(0.2, 42);
    let high = chord_success_under_flapping(0.9, 42);
    assert!(
        high <= low,
        "success must not improve with perturbation (p=0.2 {low}% vs p=0.9 {high}%)"
    );
    assert!(
        high < 80.0,
        "heavy flapping must visibly hurt a single-copy DHT, got {high}%"
    );
}

#[test]
fn replication_improves_perturbed_success() {
    // Same scenario, replication 1 vs 4, moderate flapping.
    let run = |replication: usize| -> f64 {
        let config = ChordConfig::default().with_replication(replication);
        let (mut sim, _ids) = build_sim(7, config);
        let mut rng = SmallRng::seed_from_u64(99);
        let origin = NodeIdx::new(0);
        let objects: Vec<Id> = (0..OBJECTS).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(origin, o);
        }
        sim.run_to_quiescence();
        let flap = FlappingConfig::idle_offline_secs(30, 30, 0.6);
        let period = flap.period();
        let mut model = Flapping::new(flap, N, 0x77, &mut rng);
        model.exempt(origin);
        sim.set_availability(Box::new(model));
        sim.start_maintenance();
        sim.run_until(sim.now() + period);
        let mut handles = Vec::new();
        for &o in &objects {
            let deadline = sim.now() + period;
            handles.push(sim.issue_lookup(origin, o, deadline));
            let next = sim.now() + period;
            sim.run_until(next);
        }
        let ok = handles
            .iter()
            .filter(|&&h| matches!(sim.lookup_outcome(h), LookupOutcome::Succeeded { .. }))
            .count();
        100.0 * ok as f64 / OBJECTS as f64
    };
    let single = run(1);
    let replicated = run(4);
    assert!(
        replicated >= single,
        "replication must not hurt ({single}% vs {replicated}%)"
    );
}

/// MPIL routing over the frozen Chord overlay (successors ∪ fingers ∪
/// predecessor as a static graph, no maintenance) must beat plain Chord
/// under heavy perturbation — the paper's Section 6.2 argument ported to
/// a Chord substrate.
#[test]
fn mpil_over_frozen_chord_overlay_beats_chord_under_heavy_flapping() {
    use mpil::{DynamicConfig, DynamicNetwork, LookupStatus, MpilConfig};

    let probability = 0.9;
    let seed = 42;
    let chord_rate = chord_success_under_flapping(probability, seed);

    // Build the same ring, freeze its neighbor lists, run MPIL on top.
    let config = ChordConfig::default();
    let (sim, ids) = build_sim(seed, config);
    let neighbors = sim.neighbor_lists();

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbeef);
    let origin = NodeIdx::new(0);
    let objects: Vec<Id> = (0..OBJECTS).map(|_| Id::random(&mut rng)).collect();

    let mpil_config = MpilConfig::default()
        .with_max_flows(10)
        .with_num_replicas(5);
    let dyn_config = DynamicConfig {
        mpil: mpil_config,
        ..DynamicConfig::default()
    };
    let mut net = DynamicNetwork::new(
        (ids, neighbors.into()),
        dyn_config,
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(20))),
        seed,
    );
    for &o in &objects {
        net.insert(origin, o);
    }
    net.run_to_quiescence();

    let flap = FlappingConfig::idle_offline_secs(30, 30, probability);
    let period = flap.period();
    let mut model = Flapping::new(flap, N, seed ^ 0x5a5a, &mut rng);
    model.exempt(origin);
    net.set_availability(Box::new(model));
    net.run_until(net.now() + period);

    let mut handles = Vec::new();
    for &o in &objects {
        let deadline = net.now() + SimDuration::from_secs(60).min(period);
        handles.push(net.issue_lookup(origin, o, deadline));
        let next = net.now() + period;
        net.run_until(next);
    }
    let ok = handles
        .iter()
        .filter(|&&h| matches!(net.lookup_outcome(h), LookupStatus::Succeeded { .. }))
        .count();
    let mpil_rate = 100.0 * ok as f64 / OBJECTS as f64;

    assert!(
        mpil_rate > chord_rate,
        "MPIL over the frozen Chord graph ({mpil_rate}%) must beat \
         maintained Chord ({chord_rate}%) at p={probability}"
    );
}

/// Determinism: identical seeds give identical success rates.
#[test]
fn perturbation_runs_are_deterministic() {
    let a = chord_success_under_flapping(0.5, 1234);
    let b = chord_success_under_flapping(0.5, 1234);
    assert_eq!(a, b);
}

/// Random sanity: the flapping model's period arithmetic lines up with
/// lookup cadence (no panics, monotone time) across seeds.
#[test]
fn flapping_cadence_never_panics_across_seeds() {
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..3 {
        let seed = rng.gen();
        let _ = chord_success_under_flapping(0.4, seed);
    }
}
