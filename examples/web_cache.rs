//! Cooperative web caching with heartbeat-based deletion — the paper's
//! second motivating application (Section 1), on the event-driven engine.
//!
//! ```text
//! cargo run --release --example web_cache
//! ```
//!
//! Edge proxies form a random overlay. When a proxy caches a URL it
//! inserts a pointer keyed by the URL's hash; other proxies resolve cache
//! misses by MPIL lookup instead of going to the origin server. Replica
//! holders heartbeat the owner (Section 4.4's deletion protocol), so when
//! the owner evicts the entry it can delete every pointer replica.

use mpil::{DynamicConfig, DynamicNetwork, LookupStatus, MpilConfig};
use mpil_id::Id;
use mpil_overlay::{generators, NodeIdx};
use mpil_sim::{AlwaysOn, ConstantLatency, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn url_key(url: &str) -> Id {
    let mut bytes = [0u8; 20];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, b) in url.bytes().cycle().take(200).enumerate() {
        h ^= u64::from(b).wrapping_add(i as u64);
        h = h.wrapping_mul(0x1_0000_01b3);
        bytes[i % 20] ^= (h >> 24) as u8;
    }
    Id::from_bytes(bytes)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(8080);
    let proxies = 400;
    let topo = generators::random_regular(proxies, 12, &mut rng)?;

    let config = DynamicConfig {
        mpil: MpilConfig::default()
            .with_max_flows(20)
            .with_num_replicas(5),
        // Replica holders heartbeat the owner every 20 simulated seconds.
        heartbeat_period: Some(SimDuration::from_secs(20)),
    };
    let mut net = DynamicNetwork::new(
        topo.into_parts(),
        config,
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(15))),
        1,
    );

    let urls = [
        "http://example.org/index.html",
        "http://example.org/logo.png",
        "http://news.example.com/today",
        "http://video.example.net/clip.mpg",
    ];

    // Proxy 0 caches all four and publishes pointers.
    let owner = NodeIdx::new(0);
    for url in &urls {
        net.insert(owner, url_key(url));
    }
    net.run_until(net.now() + SimDuration::from_secs(65));
    for url in &urls {
        println!(
            "{url:<36} pointer replicas: {}",
            net.replica_holders(url_key(url)).len()
        );
    }
    // Before any delete, the only maintenance traffic is heartbeats.
    let c = net.counters();
    println!(
        "messages so far: {} insert, {} heartbeat",
        c.insert_messages, c.maintenance_messages
    );

    // A cache miss at proxy 123 resolves via MPIL.
    let client = NodeIdx::new(123);
    let deadline = net.now() + SimDuration::from_secs(30);
    let lk = net.issue_lookup(client, url_key(urls[0]), deadline);
    net.run_until(deadline);
    match net.lookup_outcome(lk) {
        LookupStatus::Succeeded { hops, latency } => println!(
            "\nproxy {client} resolved {} in {hops} hops ({latency})",
            urls[0]
        ),
        other => println!("\nproxy {client} lookup outcome: {other:?}"),
    }

    // The owner evicts one entry: heartbeats told it where the replicas
    // are, so explicit deletes reach all of them.
    let before = net.counters().maintenance_messages;
    net.with(|mpil, cx| mpil.delete(cx, owner, url_key(urls[1])));
    let deletes = net.counters().maintenance_messages - before;
    net.run_until(net.now() + SimDuration::from_secs(30));
    println!(
        "after eviction ({deletes} deletes sent), {} replicas of {} remain",
        net.replica_holders(url_key(urls[1])).len(),
        urls[1]
    );

    // Misses for evicted content fail cleanly.
    let lk2 = net.issue_lookup(
        NodeIdx::new(rng.gen_range(0..proxies as u32)),
        url_key(urls[1]),
        net.now() + SimDuration::from_secs(30),
    );
    net.run_until(net.now() + SimDuration::from_secs(31));
    println!("lookup of evicted entry: {:?}", net.lookup_outcome(lk2));
    Ok(())
}
