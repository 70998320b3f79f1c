//! Flag parsing shared by the `mpild`/`mpil-load` binaries and the
//! `mpilctl serve`/`mpilctl load` subcommands, on top of the
//! workspace's [`Args`] (`--key value` / `--flag`) convention.

use std::time::Duration;

use mpil_net::{RetryPolicy, TransportKind};
use mpil_workload::Args;

use crate::daemon::DaemonConfig;
use crate::load::{ChurnPlan, LoadConfig};

/// Builds a [`DaemonConfig`] from flags:
/// `--nodes N --degree D --spares S --seed K --udp --max-flows F
/// --replicas R --no-ds --timeout-ms T --retries N`.
pub fn daemon_config(args: &Args) -> DaemonConfig {
    let defaults = DaemonConfig::default();
    let mut mpil = defaults
        .mpil
        .with_max_flows(args.value_or("max-flows", defaults.mpil.max_flows))
        .with_num_replicas(args.value_or("replicas", defaults.mpil.num_replicas));
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
            defaults.transport
        },
        mpil,
        retry: RetryPolicy {
            timeout: Duration::from_millis(
                args.value_or("timeout-ms", defaults.retry.timeout.as_millis() as u64),
            ),
            retries: args.value_or("retries", defaults.retry.retries),
        },
        fallback_drain: defaults.fallback_drain,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The defaults have one owner: no flag restates one.
    #[test]
    fn no_flags_is_the_default_daemon_field_for_field() {
        let DaemonConfig {
            nodes,
            degree,
            spares,
            seed,
            transport,
            mpil,
            retry,
            fallback_drain,
        } = daemon_config(&Args::parse([]));
        let defaults = DaemonConfig::default();
        assert_eq!(nodes, defaults.nodes);
        assert_eq!(degree, defaults.degree);
        assert_eq!(spares, defaults.spares);
        assert_eq!(seed, defaults.seed);
        assert_eq!(transport, defaults.transport);
        assert_eq!(mpil, defaults.mpil);
        assert_eq!(retry, defaults.retry);
        assert_eq!(fallback_drain, defaults.fallback_drain);
    }

    #[test]
    fn flags_override_the_defaults_they_name() {
        let flags = "--udp --max-flows 4 --replicas 2 --no-ds --timeout-ms 40 --retries 0";
        let config = daemon_config(&Args::parse(flags.split(' ').map(String::from)));
        assert_eq!(config.transport, TransportKind::Udp);
        assert_eq!((config.mpil.max_flows, config.mpil.num_replicas), (4, 2));
        assert!(!config.mpil.duplicate_suppression);
        assert_eq!(config.retry.budget(), Duration::from_millis(40));
        assert_eq!(config.nodes, DaemonConfig::default().nodes);
    }
}
