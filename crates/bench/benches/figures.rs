//! Figure-regeneration benchmarks: each paper table/figure's runner at a
//! reduced scale, so `cargo bench` exercises the exact code paths the
//! figure binaries use and tracks their cost over time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mpil::MpilConfig;
use mpil_analysis::AnalysisModel;
use mpil_bench::static_exp::{insertion_behavior, lookup_behavior, paper_insert_config, Family};
use mpil_harness::{run_scenario, EngineSpec, PerturbRun, Scenario};

fn small_perturb(idle: u64, offline: u64, p: f64) -> PerturbRun {
    PerturbRun {
        nodes: 150,
        operations: 15,
        idle_secs: idle,
        offline_secs: offline,
        probability: p,
        deadline_cap_secs: 60,
        loss_probability: 0.0,
        seed: 5,
    }
}

fn bench_fig1_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_pastry_point");
    g.sample_size(10);
    g.bench_function("pastry_30_30_p05", |b| {
        b.iter(|| {
            black_box(run_scenario(&Scenario::new(
                EngineSpec::MSPASTRY,
                small_perturb(30, 30, 0.5),
            )))
        })
    });
    g.finish();
}

fn bench_fig7_fig8_analysis(c: &mut Criterion) {
    c.bench_function("fig7_curve", |b| {
        let model = AnalysisModel::base4();
        b.iter(|| {
            let mut acc = 0.0;
            for d in (10..=100).step_by(10) {
                acc += model.expected_local_maxima_regular(16000, d);
            }
            black_box(acc)
        })
    });
    c.bench_function("fig8_curve", |b| {
        let model = AnalysisModel::base4();
        b.iter(|| {
            let mut acc = 0.0;
            for n in (1..=8).map(|k| k * 2000) {
                acc += model.expected_replicas_complete(n);
            }
            black_box(acc)
        })
    });
}

fn bench_fig9_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_insertion_point");
    g.sample_size(10);
    g.bench_function("power_law_500", |b| {
        b.iter(|| {
            black_box(insertion_behavior(
                Family::PowerLaw,
                500,
                1,
                20,
                paper_insert_config(),
                3,
            ))
        })
    });
    g.finish();
}

fn bench_tables_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_lookup_point");
    g.sample_size(10);
    g.bench_function("power_law_500_mf10_r3", |b| {
        let lookup = MpilConfig::default()
            .with_max_flows(10)
            .with_num_replicas(3);
        b.iter(|| {
            black_box(lookup_behavior(
                Family::PowerLaw,
                500,
                1,
                20,
                paper_insert_config(),
                lookup,
                4,
            ))
        })
    });
    g.finish();
}

fn bench_fig11_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_point");
    g.sample_size(10);
    g.bench_function("mpil_no_ds_300_300_p1", |b| {
        b.iter(|| {
            black_box(run_scenario(&Scenario::new(
                EngineSpec::MPIL_NO_DS,
                small_perturb(300, 300, 1.0),
            )))
        })
    });
    g.finish();
}

fn bench_ext_gossip_point(c: &mut Criterion) {
    use mpil_harness::{run_scenario, EngineSpec, LookupStrategy, Scenario};
    let mut g = c.benchmark_group("ext_gossip_point");
    g.sample_size(10);
    for (name, strategy) in [
        ("gossip_walk_30_30_p05", LookupStrategy::KRandomWalk),
        ("gossip_ring_30_30_p05", LookupStrategy::ExpandingRing),
    ] {
        g.bench_function(name, |b| {
            let spec = EngineSpec::Gossip {
                view: 8,
                walkers: 8,
                ttl: 8,
                strategy,
            };
            let mut run = small_perturb(30, 30, 0.5);
            run.nodes = 120;
            run.operations = 12;
            let scenario = Scenario::new(spec, run);
            b.iter(|| black_box(run_scenario(&scenario)))
        });
    }
    g.finish();
}

/// Splitmix-style mixer: a deterministic stand-in for an RNG, so the
/// kernel benches need no seed plumbing and never drift between runs.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

fn bench_kernel_scheduler(c: &mut Criterion) {
    use mpil_overlay::NodeIdx;
    use mpil_sim::{AlwaysOn, ConstantLatency, Event, Network, SimDuration};
    // Push/pop/drain through the public Network API — the only way
    // protocols reach the timer wheel. Delays span microseconds to two
    // simulated minutes so every wheel level and the overflow heap get
    // exercised, at pending-set sizes from 10³ to 10⁶.
    let mut g = c.benchmark_group("kernel_scheduler");
    g.sample_size(10);
    for &pending in &[1_000u64, 10_000, 100_000, 1_000_000] {
        g.bench_function(format!("push_pop_drain_{pending}"), |b| {
            b.iter(|| {
                let mut net: Network<(), u64> = Network::new(
                    1,
                    Box::new(AlwaysOn),
                    Box::new(ConstantLatency(SimDuration::from_millis(1))),
                    7,
                );
                let node = NodeIdx::new(0);
                for i in 0..pending {
                    let delay = SimDuration::from_micros(mix(i) % 120_000_000);
                    net.schedule(node, delay, i);
                }
                let mut drained = 0u64;
                while let Some(ev) = net.next() {
                    drained += u64::from(matches!(ev, Event::Timer { .. }));
                }
                black_box(drained)
            })
        });
    }
    g.finish();
}

fn bench_arena_map(c: &mut Criterion) {
    use mpil_id::{Id, IdMap};
    // The open-addressed Id→value arena map that replaced std HashMaps
    // in every engine's per-node state: bulk insert and full-table
    // lookup at the sizes the scale curve runs at.
    let mut g = c.benchmark_group("arena_id_map");
    g.sample_size(10);
    for &n in &[1_000u64, 10_000, 100_000] {
        let ids: Vec<Id> = (0..n).map(|i| Id::from_low_u64(mix(i) | 1)).collect();
        g.bench_function(format!("insert_{n}"), |b| {
            b.iter(|| {
                let mut map = IdMap::new();
                for (v, &id) in ids.iter().enumerate() {
                    map.insert(id, v as u32);
                }
                black_box(map.len())
            })
        });
        let mut map = IdMap::new();
        for (v, &id) in ids.iter().enumerate() {
            map.insert(id, v as u32);
        }
        g.bench_function(format!("lookup_{n}"), |b| {
            b.iter(|| {
                let mut hits = 0u64;
                for &id in &ids {
                    hits += u64::from(map.contains_key(&id));
                }
                black_box(hits)
            })
        });
    }
    g.finish();
}

fn bench_message_plane(c: &mut Criterion) {
    use mpil_gossip::{build_converged_views, GossipConfig, GossipSim};
    use mpil_id::Id;
    use mpil_overlay::NodeIdx;
    use mpil_sim::{AlwaysOn, SimDuration, UniformLatency};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fresh_sim(seed: u64) -> (GossipSim, GossipConfig) {
        let config = GossipConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let views = build_converged_views(5_000, config.view_size, &mut rng);
        let sim = GossipSim::new(
            views,
            config,
            Box::new(AlwaysOn),
            Box::new(UniformLatency::new(
                SimDuration::from_millis(10),
                SimDuration::from_millis(80),
            )),
            seed,
        );
        (sim, config)
    }

    // The pooled message plane's two hot paths, isolated: one full
    // shuffle round across 5k nodes (divide by 5000 for per-round
    // cost), and one k-random-walk lookup (8 walkers x ttl 16 = ~128
    // message hops; divide for per-hop cost).
    let mut g = c.benchmark_group("message_plane");
    g.sample_size(10);
    g.bench_function("shuffle_round_5k", |b| {
        let (mut sim, config) = fresh_sim(9);
        sim.start_maintenance();
        // Warm the timer wheel, payload pool, and per-node scratch so
        // the measured iterations see the steady state.
        sim.run_until(sim.now() + config.gossip_period * 4);
        b.iter(|| {
            sim.run_until(sim.now() + config.gossip_period);
            black_box(sim.net_stats().delivered)
        })
    });
    g.bench_function("walk_lookup_5k", |b| {
        // No maintenance: the overlay is quiet, so an iteration's cost
        // is the lookup's walk hops and nothing else.
        let (mut sim, _) = fresh_sim(11);
        let origin = NodeIdx::new(0);
        let mut i = 0u64;
        for _ in 0..16 {
            // Warm the wheel and pools with throwaway lookups.
            i += 1;
            let deadline = sim.now() + SimDuration::from_secs(30);
            sim.issue_lookup(origin, Id::from_low_u64(mix(i) | 1), deadline);
            sim.run_until(deadline);
        }
        b.iter(|| {
            // A lookup for an absent object exhausts every walker's hop
            // budget: the iteration cost is ~128 walk hops.
            i += 1;
            let deadline = sim.now() + SimDuration::from_secs(30);
            let handle = sim.issue_lookup(origin, Id::from_low_u64(mix(i) | 1), deadline);
            sim.run_until(deadline);
            black_box(sim.lookup_outcome(handle))
        })
    });
    g.finish();
}

fn bench_epidemic_plane(c: &mut Criterion) {
    use mpil_gossip::{build_converged_membership, EpidemicConfig, EpidemicSim};
    use mpil_id::Id;
    use mpil_overlay::NodeIdx;
    use mpil_sim::{AlwaysOn, SimDuration, UniformLatency};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fresh_sim(seed: u64) -> (EpidemicSim, EpidemicConfig) {
        let config = EpidemicConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let members =
            build_converged_membership(5_000, config.active_size, config.passive_size, &mut rng);
        let sim = EpidemicSim::new(
            members,
            config,
            Box::new(AlwaysOn),
            Box::new(UniformLatency::new(
                SimDuration::from_millis(10),
                SimDuration::from_millis(80),
            )),
            seed,
        );
        (sim, config)
    }

    // The epidemic engine's two hot paths, isolated: one HyParView
    // maintenance round across 5k nodes (a neighbor probe plus a
    // shuffle exchange per node — divide by 5000 for per-node cost),
    // and one Plumtree broadcast (eager Gossip along ~n-1 tree links
    // plus IHAVE digests on the lazy links — divide by 5000 for
    // per-delivery cost).
    let mut g = c.benchmark_group("epidemic_plane");
    g.sample_size(10);
    g.bench_function("hyparview_shuffle_round_5k", |b| {
        let (mut sim, config) = fresh_sim(9);
        sim.start_maintenance();
        // Warm the timer wheel, payload pool, and per-node scratch so
        // the measured iterations see the steady state.
        sim.run_until(sim.now() + config.gossip_period * 4);
        b.iter(|| {
            sim.run_until(sim.now() + config.gossip_period);
            black_box(sim.net_stats().delivered)
        })
    });
    g.bench_function("plumtree_broadcast_5k", |b| {
        // No maintenance: the overlay is quiet, so an iteration's cost
        // is one broadcast wave and its GRAFT/PRUNE repair traffic.
        let (mut sim, _) = fresh_sim(11);
        let origin = NodeIdx::new(0);
        let mut i = 0u64;
        for _ in 0..16 {
            // Warm the wheel, pools, and per-node store tables — and
            // prune the eager graph down to its spanning tree, so the
            // measured broadcasts ride the converged topology.
            i += 1;
            sim.insert(origin, Id::from_low_u64(mix(i) | 1));
            sim.run_to_quiescence();
        }
        b.iter(|| {
            i += 1;
            sim.insert(origin, Id::from_low_u64(mix(i) | 1));
            sim.run_to_quiescence();
            black_box(sim.net_stats().delivered)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig1_point,
    bench_fig7_fig8_analysis,
    bench_fig9_point,
    bench_tables_point,
    bench_fig11_point,
    bench_ext_gossip_point,
    bench_kernel_scheduler,
    bench_arena_map,
    bench_message_plane,
    bench_epidemic_plane
);
criterion_main!(benches);
