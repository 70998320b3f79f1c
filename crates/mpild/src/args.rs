//! Flag parsing shared by the `mpild`/`mpil-load` binaries and the
//! `mpilctl serve`/`mpilctl load` subcommands, on top of the
//! workspace's [`Args`] (`--key value` / `--flag`) convention.

use std::time::Duration;

use mpil::MpilConfig;
use mpil_net::{RetryPolicy, TransportKind};
use mpil_workload::Args;

use crate::daemon::DaemonConfig;
use crate::load::{ChurnPlan, LoadConfig};

/// Builds a [`DaemonConfig`] from flags:
/// `--nodes N --degree D --spares S --seed K --udp --max-flows F
/// --replicas R --no-ds --timeout-ms T --retries N`.
pub fn daemon_config(args: &Args) -> DaemonConfig {
    let defaults = DaemonConfig::default();
    let mut mpil = MpilConfig::default()
        .with_max_flows(args.value_or("max-flows", 10))
        .with_num_replicas(args.value_or("replicas", 3));
    if args.flag("no-ds") {
        mpil = mpil.with_duplicate_suppression(false);
    }
    DaemonConfig {
        nodes: args.value_or("nodes", defaults.nodes),
        degree: args.value_or("degree", defaults.degree),
        spares: args.value_or("spares", defaults.spares),
        seed: args.value_or("seed", defaults.seed),
        transport: if args.flag("udp") {
            TransportKind::Udp
        } else {
            TransportKind::Channel
        },
        mpil,
        retry: RetryPolicy {
            timeout: Duration::from_millis(args.value_or("timeout-ms", 150)),
            retries: args.value_or("retries", 2),
        },
        fallback_drain: Duration::from_millis(args.value_or("fallback-drain-ms", 500)),
    }
}

/// Builds a [`LoadConfig`] from flags:
/// `--objects N --lookups K --rate R --window W --workers C
/// --client-timeout-ms T --seed S --drain-ms D
/// --churn-period-ms P --churn-count N --churn-length-ms L`.
///
/// `nodes` is the target daemon's live node count (origins are drawn
/// below it).
pub fn load_config(args: &Args, nodes: usize) -> LoadConfig {
    let defaults = LoadConfig::default();
    let churn = args.value("churn-period-ms").and_then(|v| {
        let period: u64 = v.parse().ok()?;
        Some(ChurnPlan {
            period: Duration::from_millis(period),
            count: args.value_or("churn-count", 2),
            length: Duration::from_millis(args.value_or("churn-length-ms", 200)),
        })
    });
    LoadConfig {
        objects: args.value_or("objects", defaults.objects),
        lookups: args.value_or("lookups", defaults.lookups),
        nodes,
        rate: args.value("rate").and_then(|v| v.parse().ok()),
        window: args.value_or("window", defaults.window),
        workers: args.value_or("workers", defaults.workers),
        timeout: Duration::from_millis(args.value_or("client-timeout-ms", 2000)),
        seed: args.value_or("seed", defaults.seed),
        churn,
        drain: Duration::from_millis(args.value_or("drain-ms", 500)),
    }
}
