//! Live deployment: MPIL on real threads and real UDP sockets.
//!
//! ```text
//! cargo run --release --example live_cluster
//! ```
//!
//! Everything else in this repository runs under a deterministic
//! discrete-event simulator; this example is the "production" path: a
//! 64-node overlay hosted by one shard thread per core, each with its
//! own loopback UDP socket, speaking the versioned wire format of
//! [`mpil_net::codec`] to the other shards and to the client. It inserts object pointers, perturbs a quarter
//! of the fleet (nodes silently drop every datagram, exactly the
//! paper's model of an unresponsive host), and shows lookups riding
//! through on redundant flows.

use std::time::Duration;

use mpil::MpilConfig;
use mpil_id::Id;
use mpil_net::{LiveClusterBuilder, TransportKind};
use mpil_overlay::{generators, NodeIdx};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(2005);
    let n = 64;
    let topo = generators::random_regular(n, 8, &mut rng)?;
    println!("spawning {n} nodes on shard threads with loopback UDP sockets...");

    let mut cluster = LiveClusterBuilder::new()
        .transport(TransportKind::Udp)
        .config(
            MpilConfig::default()
                .with_max_flows(10)
                .with_num_replicas(5),
        )
        .seed(7)
        .spawn(&topo)?;

    // Insert a handful of object pointers through node 0.
    let objects: Vec<Id> = (0..8).map(|_| Id::random(&mut rng)).collect();
    println!("\ninserting {} objects through node 0:", objects.len());
    for (i, &o) in objects.iter().enumerate() {
        let holders = cluster.insert(NodeIdx::new(0), o, Duration::from_millis(400));
        println!("  object {i}: {} replicas at {holders:?}", holders.len());
    }

    // Healthy lookups from a different entry node.
    println!("\nlookups from node 13 (healthy cluster):");
    for (i, &o) in objects.iter().enumerate() {
        match cluster.lookup(NodeIdx::new(13), o, Duration::from_secs(2)) {
            Some(hit) => println!(
                "  object {i}: found at {} in {} hops, {:?}",
                hit.holder, hit.hops, hit.elapsed
            ),
            None => println!("  object {i}: MISS"),
        }
    }

    // Perturb a quarter of the fleet and look up again.
    println!("\nperturbing 16 of {n} nodes for 30 s (they drop every datagram)...");
    for i in (3..n as u32).step_by(4) {
        cluster.perturb(NodeIdx::new(i), Duration::from_secs(30));
    }
    let mut ok = 0;
    for &o in &objects {
        if cluster
            .lookup(NodeIdx::new(0), o, Duration::from_secs(2))
            .is_some()
        {
            ok += 1;
        }
    }
    println!(
        "lookups under perturbation: {ok}/{} succeeded",
        objects.len()
    );

    let stats = cluster.shutdown();
    let forwards: u64 = stats.iter().map(|s| s.forwards).sum();
    let stores: u64 = stats.iter().map(|s| s.stores).sum();
    let dropped: u64 = stats.iter().map(|s| s.dropped_perturbed).sum();
    println!("\ncluster stats: {forwards} forwards, {stores} replica deposits, {dropped} frames dropped while perturbed");
    Ok(())
}
