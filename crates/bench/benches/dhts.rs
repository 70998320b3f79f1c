//! Micro/meso benchmarks of the DHT substrates and the live wire codec:
//! converged bootstrap, end-to-end DHT operations, and frame
//! encode/decode throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mpil_chord::{ChordConfig, ChordSim};
use mpil_id::Id;
use mpil_kademlia::{KademliaConfig, KademliaSim};
use mpil_overlay::NodeIdx;
use mpil_sim::{AlwaysOn, ConstantLatency, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_bootstrap(c: &mut Criterion) {
    let mut group = c.benchmark_group("dht_bootstrap");
    group.sample_size(10);
    for &n in &[1000usize, 4000] {
        let mut rng = SmallRng::seed_from_u64(1);
        let ids = mpil_chord::random_ids(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("chord", n), &ids, |b, ids| {
            let config = ChordConfig::default();
            b.iter(|| black_box(mpil_chord::build_converged_states(ids, &config)))
        });
        group.bench_with_input(BenchmarkId::new("kademlia", n), &ids, |b, ids| {
            let config = KademliaConfig::default();
            b.iter(|| black_box(mpil_kademlia::build_converged_tables(ids, &config)))
        });
    }
    group.finish();
}

fn bench_chord_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dht_lookup_sim");
    group.sample_size(10);
    let n = 1000;
    let mut rng = SmallRng::seed_from_u64(2);
    let config = ChordConfig::default();
    let ids = mpil_chord::random_ids(n, &mut rng);
    let states = mpil_chord::build_converged_states(&ids, &config);
    let mut sim = ChordSim::new(
        (ids, states),
        config,
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(10))),
        2,
    );
    let object = Id::from_low_u64(77);
    sim.insert(NodeIdx::new(0), object);
    sim.run_to_quiescence();
    let mut k = 0u32;
    group.bench_function("chord_1000", |b| {
        b.iter(|| {
            k = (k + 1) % 1000;
            let h = sim.issue_lookup(NodeIdx::new(k), object, SimTime::from_micros(u64::MAX / 2));
            sim.run_to_quiescence();
            black_box(sim.lookup_outcome(h))
        })
    });
    group.finish();
}

fn bench_kademlia_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dht_lookup_sim");
    group.sample_size(10);
    let n = 1000;
    let mut rng = SmallRng::seed_from_u64(3);
    let config = KademliaConfig::default();
    let ids = mpil_chord::random_ids(n, &mut rng);
    let tables = mpil_kademlia::build_converged_tables(&ids, &config);
    let mut sim = KademliaSim::new(
        (ids, tables),
        config,
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(10))),
        3,
    );
    let object = Id::from_low_u64(99);
    sim.insert(NodeIdx::new(0), object);
    sim.run_to_quiescence();
    let mut k = 0u32;
    group.bench_function("kademlia_1000", |b| {
        b.iter(|| {
            k = (k + 1) % 1000;
            let h = sim.issue_lookup(NodeIdx::new(k), object, SimTime::from_micros(u64::MAX / 2));
            sim.run_to_quiescence();
            black_box(sim.lookup_outcome(h))
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    use mpil::{Message, MessageId, MessageKind};
    use mpil_net::WireMessage;
    let mut group = c.benchmark_group("wire_codec");
    let mut msg = Message::initial(
        MessageId(123),
        MessageKind::Lookup,
        Id::from_low_u64(0xfeed_f00d),
        NodeIdx::new(7),
        10,
        5,
    );
    for i in 0..12u32 {
        msg = msg.forwarded(NodeIdx::new(i), 3);
    }
    let wire = WireMessage::Forward(msg);
    group.bench_function("encode_forward_12hop", |b| {
        b.iter(|| black_box(wire.encode()))
    });
    let encoded = wire.encode().expect("encode");
    group.bench_function("decode_forward_12hop", |b| {
        b.iter(|| black_box(WireMessage::decode(&encoded).expect("valid")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bootstrap,
    bench_chord_lookup,
    bench_kademlia_lookup,
    bench_codec
);
criterion_main!(benches);
