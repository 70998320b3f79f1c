//! DHT showdown: Pastry vs Chord vs Kademlia vs MPIL under perturbation.
//!
//! ```text
//! cargo run --release --example dht_showdown
//! ```
//!
//! A miniature of the `ext_dht_comparison` experiment, driving each
//! substrate's public API directly: build a converged 200-node overlay
//! of each kind, insert the same 30 objects, switch on the paper's
//! 30:30 flapping at p = 0.8, and issue one lookup per period. The
//! maintained single-copy DHTs lose lookups to offline roots; MPIL,
//! with no maintenance at all, rides through on redundant flows and
//! replicas.

use mpil::{DynamicConfig, DynamicNetwork, LookupStatus, MpilConfig};
use mpil_chord::{ChordConfig, ChordSim};
use mpil_id::Id;
use mpil_kademlia::{KademliaConfig, KademliaSim};
use mpil_overlay::NodeIdx;
use mpil_sim::{AlwaysOn, ConstantLatency, Flapping, FlappingConfig, SimDuration};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const N: usize = 200;
const OBJECTS: usize = 30;
const FLAP_P: f64 = 0.8;
const SEED: u64 = 2005;

fn flapping(rng: &mut SmallRng, origin: NodeIdx, start: mpil_sim::SimTime) -> Flapping {
    let cfg = FlappingConfig {
        idle: SimDuration::from_secs(30),
        offline: SimDuration::from_secs(30),
        probability: FLAP_P,
        start,
    };
    let mut f = Flapping::new(cfg, N, SEED ^ 0xf1a9, rng);
    f.exempt(origin);
    f
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let objects: Vec<Id> = (0..OBJECTS).map(|_| Id::random(&mut rng)).collect();
    let latency = || Box::new(ConstantLatency(SimDuration::from_millis(20)));
    println!("{N} nodes, {OBJECTS} objects, 30:30 flapping at p = {FLAP_P} (origin exempt)\n");
    run_chord(&objects, &mut rng, latency());
    run_kademlia(&objects, &mut rng, latency(), 1, 1);
    run_kademlia(&objects, &mut rng, latency(), 8, 3);
    run_mpil(&objects, &mut rng, latency());
    println!("\n(the maintained single-copy DHTs lose whatever their roots lose;\n MPIL's redundancy needs no maintenance at all)");
}

fn run_chord(objects: &[Id], rng: &mut SmallRng, latency: Box<dyn mpil_sim::LatencyModel>) {
    let origin = NodeIdx::new(0);
    let config = ChordConfig::default();
    let ids = mpil_chord::random_ids(N, rng);
    let states = mpil_chord::build_converged_states(&ids, &config);
    let mut sim = ChordSim::new((ids, states), config, Box::new(AlwaysOn), latency, SEED);
    for &o in objects {
        sim.insert(origin, o);
    }
    sim.run_to_quiescence();
    let f = flapping(rng, origin, sim.now());
    sim.set_availability(Box::new(f));
    sim.start_maintenance();
    let period = SimDuration::from_secs(60);
    let mut handles = Vec::new();
    for &o in objects {
        let deadline = sim.now() + period;
        handles.push(sim.issue_lookup(origin, o, deadline));
        let next = sim.now() + period;
        sim.run_until(next);
    }
    let ok = handles
        .iter()
        .filter(|&&h| {
            matches!(
                sim.lookup_outcome(h),
                mpil_chord::LookupOutcome::Succeeded { .. }
            )
        })
        .count();
    report("Chord", ok, objects.len());
}

fn run_kademlia(
    objects: &[Id],
    rng: &mut SmallRng,
    latency: Box<dyn mpil_sim::LatencyModel>,
    k: usize,
    alpha: usize,
) {
    let origin = NodeIdx::new(0);
    let config = KademliaConfig::default().with_k(k).with_alpha(alpha);
    let ids = mpil_chord::random_ids(N, rng);
    let tables = mpil_kademlia::build_converged_tables(&ids, &config);
    let mut sim = KademliaSim::new((ids, tables), config, Box::new(AlwaysOn), latency, SEED);
    for &o in objects {
        sim.insert(origin, o);
    }
    sim.run_to_quiescence();
    let f = flapping(rng, origin, sim.now());
    sim.set_availability(Box::new(f));
    sim.start_maintenance();
    let period = SimDuration::from_secs(60);
    let mut handles = Vec::new();
    for &o in objects {
        let deadline = sim.now() + period;
        handles.push(sim.issue_lookup(origin, o, deadline));
        let next = sim.now() + period;
        sim.run_until(next);
    }
    let ok = handles
        .iter()
        .filter(|&&h| {
            matches!(
                sim.lookup_outcome(h),
                mpil_kademlia::LookupOutcome::Succeeded { .. }
            )
        })
        .count();
    report(&format!("Kademlia k={k} α={alpha}"), ok, objects.len());
}

fn run_mpil(objects: &[Id], rng: &mut SmallRng, latency: Box<dyn mpil_sim::LatencyModel>) {
    let origin = NodeIdx::new(0);
    // MPIL routes over the *Chord* pointer graph, frozen: the strongest
    // form of the overlay-independence claim in this comparison.
    let config = ChordConfig::default();
    let ids = mpil_chord::random_ids(N, rng);
    let states = mpil_chord::build_converged_states(&ids, &config);
    let neighbors: Vec<Vec<NodeIdx>> = states.iter().map(|s| s.neighbor_list()).collect();
    let mut net = DynamicNetwork::new(
        (ids, neighbors),
        DynamicConfig {
            mpil: MpilConfig::default()
                .with_max_flows(10)
                .with_num_replicas(5),
            heartbeat_period: None,
        },
        Box::new(AlwaysOn),
        latency,
        SEED,
    );
    for &o in objects {
        net.insert(origin, o);
    }
    net.run_to_quiescence();
    let f = flapping(rng, origin, net.now());
    net.set_availability(Box::new(f));
    let period = SimDuration::from_secs(60);
    let mut handles = Vec::new();
    for &o in objects {
        let deadline = net.now() + period;
        handles.push(net.issue_lookup(origin, o, deadline));
        let next = net.now() + period;
        net.run_until(next);
    }
    let ok = handles
        .iter()
        .filter(|&&h| matches!(net.lookup_outcome(h), LookupStatus::Succeeded { .. }))
        .count();
    report("MPIL (frozen graph)", ok, objects.len());
}

fn report(label: &str, ok: usize, total: usize) {
    println!(
        "  {label:<20} {ok:>2}/{total} lookups ({:.0}%)",
        100.0 * ok as f64 / total as f64
    );
}
