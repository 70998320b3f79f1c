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
///
/// # Errors
///
/// Names the flag whose value does not parse, or a `--timeout-ms` of
/// zero (a daemon that times out every request).
pub fn daemon_config(args: &Args) -> Result<DaemonConfig, String> {
    let defaults = DaemonConfig::default();
    let max_flows = args.try_value("max-flows")?;
    let replicas = args.try_value("replicas")?;
    let mut mpil = defaults
        .mpil
        .with_max_flows(max_flows.unwrap_or(defaults.mpil.max_flows))
        .with_num_replicas(replicas.unwrap_or(defaults.mpil.num_replicas));
    if args.flag("no-ds") {
        mpil = mpil.with_duplicate_suppression(false);
    }
    Ok(DaemonConfig {
        nodes: args.try_value("nodes")?.unwrap_or(defaults.nodes),
        degree: args.try_value("degree")?.unwrap_or(defaults.degree),
        spares: args.try_value("spares")?.unwrap_or(defaults.spares),
        seed: args.try_value("seed")?.unwrap_or(defaults.seed),
        transport: if args.flag("udp") {
            TransportKind::Udp
        } else {
            defaults.transport
        },
        mpil,
        retry: RetryPolicy {
            timeout: Duration::from_millis(
                args.try_value_in("timeout-ms", 1..)?
                    .unwrap_or(defaults.retry.timeout.as_millis() as u64),
            ),
            retries: args.try_value("retries")?.unwrap_or(defaults.retry.retries),
        },
        fallback_drain: defaults.fallback_drain,
    })
}

/// Builds a [`LoadConfig`] from flags:
/// `--objects N --lookups K --rate R --window W --workers C
/// --client-timeout-ms T --seed S --drain-ms D
/// --churn-period-ms P --churn-count N --churn-length-ms L`.
///
/// `nodes` is the target daemon's live node count (origins are drawn
/// below it), or `None` when the caller probes the daemon for it
/// afterwards (left 0 here; a probe that reads 0 is the caller's to
/// refuse).
///
/// # Errors
///
/// Names the flag whose value does not parse, or that the load cannot
/// run with: zero `--nodes`, `--objects`, `--window`, `--workers` or
/// `--churn-period-ms`, a `--churn-length-ms` past `u32::MAX`, a
/// `--rate` that is not positive and finite.
pub fn load_config(args: &Args, nodes: Option<usize>) -> Result<LoadConfig, String> {
    let defaults = LoadConfig::default();
    // Read whether or not there is a period: a flag that was not read
    // is a flag `Args::finish` refuses.
    let count = args.try_value("churn-count")?.unwrap_or(2);
    // A perturb frame carries its length in a `u32` of milliseconds.
    let length = args.try_value_in("churn-length-ms", 0..=u64::from(u32::MAX))?;
    let length = Duration::from_millis(length.unwrap_or(200));
    let churn = args
        .try_value_in("churn-period-ms", 1..)?
        .map(|period| ChurnPlan {
            period: Duration::from_millis(period),
            count,
            length,
        });
    let positive = |flag: &str, value: Option<usize>| match value {
        Some(0) => Err(format!("--{flag} 0: must be at least 1")),
        _ => Ok(value),
    };
    let rate: Option<f64> = args.try_value("rate")?;
    if let Some(rate) = rate.filter(|r| !(r.is_finite() && *r > 0.0)) {
        return Err(format!("--rate {rate}: must be positive and finite"));
    }
    Ok(LoadConfig {
        objects: positive("objects", args.try_value("objects")?)?.unwrap_or(defaults.objects),
        lookups: args.try_value("lookups")?.unwrap_or(defaults.lookups),
        nodes: positive("nodes", nodes)?.unwrap_or(0),
        rate,
        window: positive("window", args.try_value("window")?)?.unwrap_or(defaults.window),
        workers: positive("workers", args.try_value("workers")?)?.unwrap_or(defaults.workers),
        timeout: Duration::from_millis(args.try_value("client-timeout-ms")?.unwrap_or(2000)),
        seed: args.try_value("seed")?.unwrap_or(defaults.seed),
        churn,
        drain: Duration::from_millis(args.try_value("drain-ms")?.unwrap_or(500)),
    })
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
        } = daemon_config(&Args::parse([])).expect("no flags");
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
        let config =
            daemon_config(&Args::parse(flags.split(' ').map(String::from))).expect("well-formed");
        assert_eq!(config.transport, TransportKind::Udp);
        assert_eq!((config.mpil.max_flows, config.mpil.num_replicas), (4, 2));
        assert!(!config.mpil.duplicate_suppression);
        assert_eq!(config.retry.budget(), Duration::from_millis(40));
        assert_eq!(config.nodes, DaemonConfig::default().nodes);
    }
}
