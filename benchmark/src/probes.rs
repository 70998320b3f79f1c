//! The layer probes of a traced run.
//!
//! Each probe measures one layer of the program from outside, through
//! its public items, at a fixed size that does not depend on the
//! workload being traced: the same procedure runs after every traced
//! workload, so a per-layer number means the same thing wherever it is
//! read. Micro probes time batches of calls and report the median
//! batch; the "canaries" are small fixed-size instances of the service,
//! the engines and the static router, for the per-layer numbers that
//! only a whole run of a layer can give (a stage time, a round trip).

use std::hint::black_box;
use std::time::Duration;

use bytes::Bytes;
use mpil::{routing_decision, Message, MessageId, MessageKind};
use mpil_gossip::{build_converged_membership, EpidemicConfig, EpidemicSim};
use mpil_id::{Id, IdMap, IdSpace};
use mpil_net::{
    ChannelMesh, ClientEvent, LiveClusterBuilder, RequestTracker, RetryPolicy, Transport,
    TransportKind, UdpMesh, WireMessage,
};
use mpil_overlay::{generators, NodeIdx};
use mpil_sim::{
    AlwaysOn, ConstantLatency, Event, Network, PayloadPool, SimDuration, SimTime, UniformLatency,
};
use mpil_workload::{InsertLookupWorkload, WorkloadConfig};
use mpild::daemon::DaemonConfig;
use mpild::proto::{CtrlRequest, CtrlResponse};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::now_ns;
use crate::hist::{median, Histogram};
use crate::machine;
use crate::outcome::RunArgs;
use crate::sim::{self, EngineRun, Traffic};
use crate::span::{Recorder, NO_PARENT};
use crate::spec::Metrics;
use crate::statics::{self, StaticSize};
use crate::svc::{daemon_config, mix, object_id, start_daemon, Load, OpKind, PhasePlan, Plane};

/// Batches per micro probe; the median batch is reported.
const BATCHES: usize = 5;

/// Probe sizes: full, or about a twentieth in `--quick` mode.
struct Scale {
    quick: bool,
}

impl Scale {
    fn n(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(4)
        } else {
            full
        }
    }
}

/// Median over `BATCHES` batches of the nanoseconds one call of `f` takes.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = now_ns();
            for i in 0..iters {
                f(i);
            }
            (now_ns() - start) as f64 / iters as f64
        })
        .collect();
    median(&batches).unwrap_or(0.0)
}

/// Median over `BATCHES` runs of the milliseconds `f` takes.
fn ms_per_run(batches: usize, mut f: impl FnMut(usize)) -> f64 {
    let runs: Vec<f64> = (0..batches)
        .map(|i| {
            let start = now_ns();
            f(i);
            (now_ns() - start) as f64 / 1e6
        })
        .collect();
    median(&runs).unwrap_or(0.0)
}

fn us(ns: Option<f64>) -> f64 {
    ns.unwrap_or(0.0) / 1e3
}

/// Runs every probe. `have` holds what the traced workload measured
/// from its own spans and counts: a canary whose numbers are all there
/// already is skipped.
pub fn run(args: &RunArgs, have: &Metrics) -> Result<Metrics, String> {
    let scale = Scale { quick: args.quick };
    let mut m = Metrics::default();
    // Every probe on one CPU, as the service workloads run (see there).
    machine::pin_to_one_cpu();
    codecs(&scale, args.seed, &mut m);
    request_tracker(&scale, &mut m);
    ids_and_routing(&scale, args.seed, &mut m)?;
    kernel(&scale, &mut m);
    generators_and_workload(&scale, args.seed, &mut m)?;
    transports(&scale, &mut m)?;
    for plane in [Plane::Chan, Plane::Udp] {
        let cluster_p50_ns = bare_cluster(&scale, plane, args.seed, &mut m)?;
        daemon_canary(&scale, plane, args.seed, cluster_p50_ns, have, &mut m)?;
    }
    gossip(&scale, args.seed, &mut m);
    engine_canaries(&scale, args.seed, have, &mut m);
    Ok(m)
}

/// `mpild::proto` and `mpil_net::codec`: ns per frame.
fn codecs(scale: &Scale, seed: u64, m: &mut Metrics) {
    let iters = scale.n(100_000);
    let request = CtrlRequest::Lookup {
        object: object_id(seed, 1),
        origin: 7,
    };
    let response = CtrlResponse::Found { holder: 9, hops: 4 };
    let request_frame = request.encode(0xabcdef);
    let response_frame = response.encode(0xabcdef);
    m.set(
        "mpild.proto.req_encode_ns",
        ns_per_call(iters, |i| {
            black_box(black_box(&request).encode(i as u64));
        }),
    );
    m.set(
        "mpild.proto.req_decode_ns",
        ns_per_call(iters, |_| {
            black_box(CtrlRequest::decode(black_box(&request_frame)).is_ok());
        }),
    );
    m.set(
        "mpild.proto.resp_encode_ns",
        ns_per_call(iters, |i| {
            black_box(black_box(&response).encode(i as u64));
        }),
    );
    m.set(
        "mpild.proto.resp_decode_ns",
        ns_per_call(iters, |_| {
            black_box(CtrlResponse::decode(black_box(&response_frame)).is_ok());
        }),
    );

    // A lookup that has travelled 12 hops: the longest frames the
    // service workloads put on the wire.
    let mut msg = Message::initial(
        MessageId(123),
        MessageKind::Lookup,
        object_id(seed, 2),
        NodeIdx::new(7),
        10,
        5,
    );
    for hop in 0..12u32 {
        msg = msg.forwarded(NodeIdx::new(hop), 3);
    }
    let wire = WireMessage::Forward(msg);
    let encoded = wire.encode().expect("a 12-hop route fits the wire format");
    m.set(
        "net.codec.encode_ns",
        ns_per_call(iters, |_| {
            black_box(black_box(&wire).encode().is_ok());
        }),
    );
    m.set(
        "net.codec.decode_ns",
        ns_per_call(iters, |_| {
            black_box(WireMessage::decode(black_box(&encoded)).is_ok());
        }),
    );
}

/// `RequestTracker`: the steady track/complete cycle at the closed
/// loop's 64 in flight, and a retry storm at 16 384 in flight.
fn request_tracker(scale: &Scale, m: &mut Metrics) {
    let policy = RetryPolicy::default();
    let iters = scale.n(100_000);
    let mut tracker: RequestTracker<u64> = RequestTracker::new(policy);
    let mut next = 0u64;
    for _ in 0..64 {
        tracker.track(MessageId(next), next, Duration::ZERO);
        next += 1;
    }
    m.set(
        "net.request.track_complete_ns",
        ns_per_call(iters, |_| {
            black_box(tracker.complete(MessageId(next - 64)).is_some());
            tracker.track(MessageId(next), next, Duration::from_micros(next));
            next += 1;
        }),
    );

    let in_flight = scale.n(16_384) as u64;
    let batches: Vec<f64> = (0..BATCHES as u64)
        .map(|batch| {
            let mut tracker: RequestTracker<u64> = RequestTracker::new(policy);
            for id in 0..in_flight {
                tracker.track(MessageId(id), id, Duration::ZERO);
            }
            let late = policy.timeout + Duration::from_millis(1);
            let first_fresh = (batch + 1) * in_flight * 2;
            let start = now_ns();
            for fresh in first_fresh..first_fresh + in_flight {
                let (_, pending) = tracker
                    .pop_expired(late)
                    .expect("every request has expired");
                tracker.retry(MessageId(fresh), pending, late);
            }
            black_box(tracker.retried());
            (now_ns() - start) as f64 / in_flight as f64
        })
        .collect();
    m.set(
        "net.request.expire_retry_ns",
        median(&batches).unwrap_or(0.0),
    );
}

/// `mpil-id` and the routing decision of `mpil` (core).
fn ids_and_routing(scale: &Scale, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let iters = scale.n(100_000);
    let ids: Vec<Id> = (0..1024).map(|i| object_id(seed, i)).collect();
    let space = IdSpace::base4();
    m.set(
        "id.metric.common_digits_ns",
        ns_per_call(iters, |i| {
            black_box(space.common_digits(ids[i % 1024], ids[(i * 7 + 1) % 1024]));
        }),
    );

    let n = scale.n(100_000);
    let keys: Vec<Id> = (0..n as u64).map(|i| object_id(seed ^ 0x1d, i)).collect();
    let mut map = IdMap::new();
    let insert_batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            map = IdMap::new();
            let start = now_ns();
            for (v, &id) in keys.iter().enumerate() {
                map.insert(id, v as u32);
            }
            (now_ns() - start) as f64 / n as f64
        })
        .collect();
    m.set(
        "id.idmap.insert_ns.1e5",
        median(&insert_batches).unwrap_or(0.0),
    );
    m.set(
        "id.idmap.get_ns.1e5",
        ns_per_call(n, |i| {
            black_box(map.get(&keys[(i * 31) % n]).is_some());
        }),
    );

    let mut rng = SmallRng::seed_from_u64(seed);
    let topo = generators::random_regular(500, 30, &mut rng)
        .map_err(|e| format!("routing probe overlay: {e}"))?;
    let node = NodeIdx::new(0);
    m.set(
        "core.routing.decision_ns",
        ns_per_call(iters, |i| {
            black_box(routing_decision(
                space,
                black_box(ids[i % 1024]),
                node,
                topo.neighbors(node),
                topo.ids(),
                |_| false,
            ));
        }),
    );
    Ok(())
}

/// The simulator kernel: timer wheel, message path, payload pool.
fn kernel(scale: &Scale, m: &mut Metrics) {
    let node = NodeIdx::new(0);
    for (name, pending) in [
        ("sim.wheel.push_pop_ns.1e4", scale.n(10_000)),
        ("sim.wheel.push_pop_ns.1e6", scale.n(1_000_000)),
    ] {
        // Delays from microseconds to two simulated minutes, so every
        // wheel level and the overflow heap take part.
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let mut net: Network<(), u64> = Network::new(
                    1,
                    Box::new(AlwaysOn),
                    Box::new(ConstantLatency(SimDuration::from_millis(1))),
                    7,
                );
                let start = now_ns();
                for i in 0..pending as u64 {
                    net.schedule(node, SimDuration::from_micros(mix(i) % 120_000_000), i);
                }
                let mut fired = 0u64;
                while let Some(event) = net.next() {
                    fired += u64::from(matches!(event, Event::Timer { .. }));
                }
                black_box(fired);
                (now_ns() - start) as f64 / pending as f64
            })
            .collect();
        m.set(name, median(&batches).unwrap_or(0.0));
    }

    let messages = scale.n(100_000);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut net: Network<u64, ()> = Network::new(
                1024,
                Box::new(AlwaysOn),
                Box::new(UniformLatency::new(
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(80),
                )),
                7,
            );
            let mut batch = Vec::new();
            let start = now_ns();
            for i in 0..messages as u64 {
                let (from, to) = (mix(i) % 1024, mix(i + 1) % 1024);
                net.send(NodeIdx::new(from as u32), NodeIdx::new(to as u32), i);
            }
            let mut delivered = 0usize;
            while net.next_batch_before(SimTime::from_micros(u64::MAX - 1), &mut batch) {
                delivered += batch.len();
            }
            black_box(delivered);
            (now_ns() - start) as f64 / messages as f64
        })
        .collect();
    m.set("sim.net.send_deliver_ns", median(&batches).unwrap_or(0.0));

    let mut pool: PayloadPool<NodeIdx> = PayloadPool::new();
    m.set(
        "sim.pool.take_put_ns",
        ns_per_call(scale.n(100_000), |i| {
            let mut buf = pool.take();
            buf.push(NodeIdx::new(i as u32));
            pool.put(black_box(buf));
        }),
    );
}

/// Overlay generators and the workload table generator.
fn generators_and_workload(scale: &Scale, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let objects = scale.n(40_000);
    m.set(
        "workload.generate_ms",
        ms_per_run(BATCHES, |i| {
            black_box(InsertLookupWorkload::generate(WorkloadConfig {
                objects,
                nodes: 48,
                fixed_origin: None,
                seed: seed + i as u64,
            }));
        }),
    );
    let mut failed = None;
    let nodes = scale.n(10_000);
    m.set(
        "overlay.powerlaw_10k_ms",
        ms_per_run(3, |i| {
            let mut rng = SmallRng::seed_from_u64(seed + i as u64);
            if let Err(e) = generators::power_law(nodes, Default::default(), &mut rng) {
                failed = Some(e.to_string());
            }
        }),
    );
    let nodes = scale.n(100_000);
    m.set(
        "overlay.random_regular_100k_ms",
        ms_per_run(3, |i| {
            let mut rng = SmallRng::seed_from_u64(seed + i as u64);
            if let Err(e) = generators::random_regular(nodes, 8, &mut rng) {
                failed = Some(e.to_string());
            }
        }),
    );
    failed.map_or(Ok(()), |e| Err(format!("overlay probe: {e}")))
}

/// Two endpoints of a mesh: one echoes, one ping-pongs and then waits
/// on an empty queue.
fn transports(scale: &Scale, m: &mut Metrics) -> Result<(), String> {
    fn probe(scale: &Scale, mut ends: Vec<Box<dyn Transport>>) -> Result<(f64, f64), String> {
        let echo = ends.pop().expect("two endpoints");
        let near = ends.pop().expect("two endpoints");
        let handle = std::thread::spawn(move || {
            while let Ok(Some((from, payload))) = echo.recv_timeout(Duration::from_secs(2)) {
                if payload.is_empty() || echo.send(from, payload).is_err() {
                    break;
                }
            }
        });
        let ping = Bytes::from_static(&[0x5a; 64]);
        let round_trips = scale.n(400);
        let mut lost = false;
        let rtt_ns = ns_per_call(round_trips, |_| {
            lost |= near.send(1, ping.clone()).is_err();
            lost |= !matches!(near.recv_timeout(Duration::from_secs(1)), Ok(Some(_)));
        });
        // The poll quantum actually paid: a 1 ms receive that times out.
        let empty_ns = ns_per_call(scale.n(20), |_| {
            black_box(near.recv_timeout(Duration::from_millis(1)).is_ok());
        });
        let _ = near.send(1, Bytes::new());
        handle
            .join()
            .map_err(|_| "transport echo thread panicked".to_string())?;
        if lost {
            return Err("transport probe: a ping was lost on loopback".into());
        }
        Ok((rtt_ns / 1e3, empty_ns / 1e3))
    }

    let chan = ChannelMesh::build(2)
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect();
    let (rtt, empty) = probe(scale, chan)?;
    m.set("net.transport.rtt_us.chan", rtt);
    m.set("net.transport.recv_empty_us.chan", empty);
    let udp = UdpMesh::build(2)
        .map_err(|e| format!("udp mesh: {e}"))?
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect();
    let (rtt, empty) = probe(scale, udp)?;
    m.set("net.transport.rtt_us.udp", rtt);
    m.set("net.transport.recv_empty_us.udp", empty);
    Ok(())
}

/// `LiveCluster` with no daemon in front: spawn, inserts and lookups
/// one at a time, shutdown. Returns the lookup p50 in ns, the base the
/// daemon's own overhead is measured against.
fn bare_cluster(scale: &Scale, plane: Plane, seed: u64, m: &mut Metrics) -> Result<f64, String> {
    let config: DaemonConfig = daemon_config(plane, 48, 8);
    // The same topology and node seeds `Daemon::spawn` derives from its seed.
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let topo = generators::random_regular(config.nodes, config.degree, &mut rng)
        .map_err(|e| format!("cluster probe overlay: {e}"))?;
    let start = now_ns();
    let mut cluster = LiveClusterBuilder::new()
        .config(config.mpil)
        .transport(match plane {
            Plane::Chan => TransportKind::Channel,
            Plane::Udp => TransportKind::Udp,
        })
        .seed(config.seed)
        .spawn(&topo)
        .map_err(|e| format!("cluster probe spawn: {e}"))?;
    let spawn_ms = (now_ns() - start) as f64 / 1e6;

    let (inserts, lookups) = match plane {
        Plane::Chan => (scale.n(100), scale.n(300)),
        Plane::Udp => (scale.n(60), scale.n(120)),
    };
    let mut origins = SmallRng::seed_from_u64(seed ^ 0xc1);
    let mut insert_ns = Histogram::default();
    for i in 0..inserts as u64 {
        let origin = NodeIdx::new(origins.gen_range(0..config.nodes as u32));
        let start = now_ns();
        let id = cluster
            .submit(MessageKind::Insert, origin, object_id(seed, i))
            .map_err(|e| format!("cluster probe insert: {e}"))?;
        // Time to the first replica's acknowledgement, as the daemon
        // answers an announce.
        loop {
            match cluster.poll_event(Duration::from_millis(500)) {
                Ok(Some(ClientEvent::StoreAck { msg_id, .. })) if msg_id == id => break,
                Ok(Some(_)) => continue,
                _ => return Err("cluster probe: an insert was never acknowledged".into()),
            }
        }
        insert_ns.record(now_ns() - start);
    }
    // Let the remaining replicas of the last inserts settle.
    while let Ok(Some(_)) = cluster.poll_event(Duration::from_millis(20)) {}
    let mut lookup_ns = Histogram::default();
    for i in 0..lookups as u64 {
        let origin = NodeIdx::new(origins.gen_range(0..config.nodes as u32));
        let hit = cluster
            .lookup(
                origin,
                object_id(seed, i % inserts as u64),
                Duration::from_secs(2),
            )
            .ok_or("cluster probe: a lookup on a quiet cluster found nothing")?;
        lookup_ns.record(hit.elapsed.as_nanos() as u64);
    }
    let start = now_ns();
    cluster.shutdown();
    let shutdown_ms = (now_ns() - start) as f64 / 1e6;

    let suffix = plane.suffix();
    m.set(&format!("net.cluster.spawn_ms.{suffix}"), spawn_ms);
    m.set(
        &format!("net.cluster.insert_p50_us.{suffix}"),
        us(insert_ns.percentile(50.0)),
    );
    m.set(
        &format!("net.cluster.lookup_p50_us.{suffix}"),
        us(lookup_ns.percentile(50.0)),
    );
    m.set(
        &format!("net.cluster.lookup_p99_us.{suffix}"),
        us(lookup_ns.percentile(99.0)),
    );
    if plane == Plane::Chan {
        m.set("net.cluster.shutdown_ms", shutdown_ms);
    }
    Ok(lookup_ns.percentile(50.0).unwrap_or(0.0))
}

/// A small daemon on `plane`: `Stats` round trips (control receive,
/// decode, dispatch, reply, no data plane), lookups one at a time
/// (against the bare cluster's, the daemon's own overhead), and on the
/// channel plane the spawn and drain times and a short open-loop burst
/// for the generator's own lag.
fn daemon_canary(
    scale: &Scale,
    plane: Plane,
    seed: u64,
    cluster_p50_ns: f64,
    have: &Metrics,
    m: &mut Metrics,
) -> Result<(), String> {
    let (service, mut client) = start_daemon(plane, daemon_config(plane, 48, 8))?;
    let spawn_ms = service.spawn_ms;
    let objects = scale.n(64) as u64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xca);
    let mut off = Recorder::new(false);
    let warm = client.run_phase(
        &PhasePlan {
            kind: OpKind::Announce,
            load: Load::Closed { in_flight: 16 },
            duration_ns: 5_000_000_000,
            max_ops: objects,
            churn: None,
        },
        seed,
        &(0..objects).collect::<Vec<u64>>(),
        &mut rng,
        &mut off,
        NO_PARENT,
    )?;
    if warm.ok != objects {
        return Err(format!("daemon canary: {} of {objects} announces", warm.ok));
    }

    let mut rtt = Histogram::default();
    for _ in 0..scale.n(200) {
        rtt.record(client.stats()?.1);
    }
    let lookups = match plane {
        Plane::Chan => scale.n(150),
        Plane::Udp => scale.n(80),
    };
    let mut one_at_a_time = Histogram::default();
    for i in 0..lookups as u64 {
        let origin = rng.gen_range(0..48);
        let ns = client
            .one_shot(OpKind::Lookup, seed, i % objects, origin)?
            .ok_or("daemon canary: a lookup on a quiet daemon failed")?;
        one_at_a_time.record(ns);
    }
    let suffix = plane.suffix();
    m.set(
        &format!("mpild.ctrl.stats_rtt_us.{suffix}"),
        us(rtt.percentile(50.0)),
    );
    m.set(
        &format!("mpild.ctrl_overhead_us.{suffix}"),
        (one_at_a_time.percentile(50.0).unwrap_or(0.0) - cluster_p50_ns) / 1e3,
    );

    if plane == Plane::Chan && have.get("bench.gen_lag_p99_ms").is_none() {
        let confirmed: Vec<u64> = (0..objects).collect();
        let burst = client.run_phase(
            &PhasePlan {
                kind: OpKind::Lookup,
                load: Load::Open {
                    rate: 2000.0,
                    cap: 256,
                },
                duration_ns: if scale.quick { 50_000_000 } else { 400_000_000 },
                max_ops: u64::MAX,
                churn: None,
            },
            seed,
            &confirmed,
            &mut rng,
            &mut off,
            NO_PARENT,
        )?;
        m.set(
            "bench.gen_lag_p99_ms",
            burst.lag.percentile(99.0).unwrap_or(0.0) / 1e6,
        );
    }
    let (_, drain_ms, _) = client.drain(service)?;
    if plane == Plane::Chan {
        m.set("mpild.daemon.spawn_ms", spawn_ms);
        m.set("mpild.daemon.drain_ms", drain_ms);
    }
    Ok(())
}

/// The epidemic engine's two hot paths on 5 000 nodes: one HyParView
/// maintenance round, and one Plumtree broadcast on the pruned tree.
fn gossip(scale: &Scale, seed: u64, m: &mut Metrics) {
    let nodes = scale.n(5_000);
    let fresh = |seed: u64| {
        let config = EpidemicConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let members =
            build_converged_membership(nodes, config.active_size, config.passive_size, &mut rng);
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
    };

    let (mut sim, config) = fresh(seed ^ 9);
    sim.start_maintenance();
    // Warm the wheel, the payload pool and per-node scratch first.
    sim.run_until(sim.now() + config.gossip_period * 4);
    m.set(
        "gossip.hyparview.shuffle_round_ms.5k",
        ms_per_run(BATCHES, |_| {
            sim.run_until(sim.now() + config.gossip_period);
        }),
    );

    let (mut sim, _) = fresh(seed ^ 11);
    let origin = NodeIdx::new(0);
    let mut next = 0u64;
    let mut broadcast = |sim: &mut EpidemicSim| {
        next += 1;
        sim.insert(origin, object_id(seed ^ 0xb0, next));
        sim.run_to_quiescence();
    };
    // The first broadcasts prune the eager graph down to its tree.
    for _ in 0..8 {
        broadcast(&mut sim);
    }
    m.set(
        "gossip.plumtree.broadcast_ms.5k",
        ms_per_run(BATCHES, |_| broadcast(&mut sim)),
    );
}

/// One small repetition of each engine and of the static router,
/// except those the traced workload ran itself.
fn engine_canaries(scale: &Scale, seed: u64, have: &Metrics, m: &mut Metrics) {
    let canary = |label: &'static str, spec, nodes: usize, ops: usize, p: f64| EngineRun {
        label,
        spec,
        nodes: scale.n(nodes).max(40),
        ops: scale.n(ops),
        p,
    };
    let missing = |name: &str| have.get(name).is_none();
    let mut off = Recorder::new(false);
    for e in [
        canary("chord", sim::CHORD, 200, 10, 0.0),
        canary("pastry", sim::PASTRY, 200, 10, 0.0),
        canary("kademlia", sim::KADEMLIA, 200, 10, 0.0),
    ] {
        if !missing(&format!("{}.stage_s", e.label)) {
            continue;
        }
        let rep = sim::run_rep(&e, Traffic::Seeded(seed), &mut off, NO_PARENT);
        m.set(&format!("{}.build_s", e.label), rep.build_s);
        m.set(&format!("{}.stage_s", e.label), rep.insert_s + rep.lookup_s);
        m.set(
            &format!("{}.events_per_s", e.label),
            rep.events as f64 / rep.lookup_s.max(1e-9),
        );
        m.set(
            &format!("{}.success_pct", e.label),
            rep.ok as f64 / rep.lookups.max(1) as f64 * 100.0,
        );
    }

    if missing("gossip.plumtree.lookup_stage_s") {
        let rep = sim::run_rep(
            &canary("plumtree", sim::PLUMTREE, 500, 10, 0.5),
            Traffic::Seeded(seed),
            &mut off,
            NO_PARENT,
        );
        m.set("gossip.plumtree.insert_stage_s", rep.insert_s);
        m.set("gossip.plumtree.lookup_stage_s", rep.lookup_s);
    }

    if missing("core.agent.lookup_stage_s") {
        let rep = sim::run_rep(
            &canary("mpil", sim::MPIL, 10_000, 1000, 0.5),
            Traffic::Seeded(seed),
            &mut off,
            NO_PARENT,
        );
        m.set("harness.scenario_build_s", rep.build_s);
        m.set("core.agent.insert_stage_s", rep.insert_s);
        m.set("core.agent.lookup_stage_s", rep.lookup_s);
        m.set(
            "core.agent.allocs_per_event",
            rep.allocs as f64 / rep.events.max(1) as f64,
        );
    }

    if missing("core.static.lookup_us") {
        let size = StaticSize {
            nodes: scale.n(2000).max(100),
            pairs: scale.n(400),
        };
        let rep = statics::run_rep(size, seed, &mut off, NO_PARENT);
        let p50_us = |ns: &[u64]| us(Histogram::of(ns).percentile(50.0));
        m.set("core.static.insert_us", p50_us(&rep.insert_ns));
        m.set("core.static.lookup_us", p50_us(&rep.lookup_ns));
        m.set(
            "core.static.insert_msgs",
            rep.insert_msgs as f64 / size.pairs as f64,
        );
        m.set(
            "core.static.replicas_per_insert",
            rep.replicas as f64 / size.pairs as f64,
        );
    }
}
