//! `mpilctl live` — spawn a real cluster of threads and transports.

use std::time::Duration;

use mpil::MpilConfig;
use mpil_id::Id;
use mpil_net::{LiveClusterBuilder, TransportKind};
use mpil_overlay::NodeIdx;
use mpil_workload::Args;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::CliError;

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError`] on a flag it cannot read, or if the overlay cannot be
/// generated or the UDP mesh cannot bind.
pub fn run(args: &Args) -> Result<String, CliError> {
    let nodes = args.try_value("nodes")?.unwrap_or(32usize);
    let degree = args.try_value("degree")?.unwrap_or(6usize);
    let ops = args.try_value("ops")?.unwrap_or(5usize);
    let seed = args.try_value("seed")?.unwrap_or(42u64);
    let udp = args.flag("udp");
    args.finish()?;
    let transport = if udp {
        TransportKind::Udp
    } else {
        TransportKind::Channel
    };

    let topo = super::build_topology("random", nodes, degree, seed)?;
    let mut cluster = LiveClusterBuilder::new()
        .transport(transport)
        .config(
            MpilConfig::default()
                .with_max_flows(10)
                .with_num_replicas(5),
        )
        .seed(seed)
        .spawn(&topo)
        .map_err(|e| CliError(format!("failed to spawn cluster: {e}")))?;

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x11ee);
    let mut out = format!(
        "live cluster: {nodes} nodes on {} shard thread(s) over {} transport\n",
        cluster.shards(),
        if udp {
            "loopback UDP"
        } else {
            "in-process channels"
        }
    );
    let objects: Vec<Id> = (0..ops).map(|_| Id::random(&mut rng)).collect();
    for (i, &o) in objects.iter().enumerate() {
        let holders = cluster.insert(NodeIdx::new(0), o, Duration::from_millis(300));
        out.push_str(&format!("insert {i}: {} replicas\n", holders.len()));
    }
    let mut ok = 0;
    let mut total = Duration::ZERO;
    for &o in &objects {
        if let Some(hit) =
            cluster.lookup(NodeIdx::new((nodes - 1) as u32), o, Duration::from_secs(2))
        {
            ok += 1;
            total += hit.elapsed;
        }
    }
    out.push_str(&format!(
        "lookups: {ok}/{} found, mean latency {:?}\n",
        objects.len(),
        total.checked_div(ok.max(1) as u32).unwrap_or_default(),
    ));
    cluster.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::args;

    #[test]
    fn channel_cluster_runs_end_to_end() {
        let out = run(&args("--nodes 16 --degree 4 --ops 3")).expect("ok");
        assert!(out.contains("lookups: 3/3"), "got:\n{out}");
    }
}
