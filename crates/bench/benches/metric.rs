//! Microbenchmarks of the routing metric and next-hop selection — the
//! innermost loops of every MPIL experiment.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mpil::{routing_decision, routing_decision_policy, RoutingMetric, SplitPolicy};
use mpil_id::{common_digits, prefix_match_digits, Id, IdSpace};
use mpil_overlay::{generators, NodeIdx};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_common_digits(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let a = Id::random(&mut rng);
    let b = Id::random(&mut rng);
    let mut group = c.benchmark_group("common_digits");
    for bits in [1u8, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, &bits| {
            bench.iter(|| common_digits(black_box(a), black_box(b), bits))
        });
    }
    group.finish();
}

fn bench_prefix_match(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let a = Id::random(&mut rng);
    let b = Id::random(&mut rng);
    c.bench_function("prefix_match_digits_base16", |bench| {
        bench.iter(|| prefix_match_digits(black_box(a), black_box(b), 4))
    });
}

fn bench_routing_decision(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut group = c.benchmark_group("routing_decision");
    for degree in [10usize, 30, 100] {
        let topo = generators::random_regular(500, degree, &mut rng).expect("graph");
        let object = Id::random(&mut rng);
        let node = NodeIdx::new(0);
        group.bench_with_input(BenchmarkId::from_parameter(degree), &degree, |bench, _| {
            bench.iter(|| {
                routing_decision(
                    IdSpace::base4(),
                    black_box(object),
                    node,
                    topo.neighbors(node),
                    topo.ids(),
                    |_| false,
                )
            })
        });
    }
    group.finish();
}

/// The default policy at the degrees a lookup meets: 8 in the service
/// overlays, 100 on a typical power-law step, 1 000 and 3 000 at its hubs,
/// with a budget of 21 flows and a five-hop route as the `visited` scan.
fn bench_routing_decision_top_k(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(4);
    let mut group = c.benchmark_group("routing_decision_top_k");
    for degree in [8u32, 100, 1_000, 3_000] {
        let ids: Vec<Id> = (0..=degree).map(|_| Id::random(&mut rng)).collect();
        let neighbors: Vec<NodeIdx> = (1..=degree).map(NodeIdx::new).collect();
        let route: Vec<NodeIdx> = (1..=5).map(|i| NodeIdx::new(i * degree / 5)).collect();
        let object = Id::random(&mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(degree), &degree, |bench, _| {
            bench.iter(|| {
                routing_decision_policy(
                    IdSpace::base4(),
                    black_box(object),
                    NodeIdx::new(0),
                    &neighbors,
                    &ids,
                    |n| route.contains(&n),
                    SplitPolicy::TopK,
                    21,
                    RoutingMetric::CommonDigits,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_common_digits,
    bench_prefix_match,
    bench_routing_decision,
    bench_routing_decision_top_k
);
criterion_main!(benches);
