//! The service's one front end: what `mpild`, `mpil-load`,
//! `mpilctl serve` and `mpilctl load` do with their flags.
//!
//! [`serve`] and [`load`] take parsed [`Args`] and return the text for
//! stdout, or as `Err` the reason nothing ran (a command line that
//! cannot be read as written, an unreachable daemon, a socket that
//! would not bind, a cluster that would not spawn: exit code 2 in the
//! binaries); the callers differ only in how they name themselves on
//! stderr. A flag that cannot be read the way it was written is refused
//! by name before anything starts ([`Args::finish`]): a gate that
//! cannot be read fails the run. The flags themselves are read by
//! `args::daemon_config` and `args::load_config`.

use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

use mpil_net::TransportKind;
use mpil_workload::{Args, WallClock};

use crate::args::{daemon_config, load_config};
use crate::daemon::{Daemon, UdpControl};
use crate::load::{
    probe_live_nodes, run_embedded, run_load, CtrlConnection, CtrlKind, UdpCtrlClient,
};
use crate::proto::CtrlRequest;

/// `mpild --help`.
pub(crate) const SERVE_USAGE: &str = "\
mpild — MPIL service daemon (control plane on loopback UDP)

  --port P         control port (default 0 = ephemeral, printed on stdout)
  --nodes N        overlay nodes in service (default 48)
  --degree D       regular-graph degree (default 8)
  --spares S       parked spare nodes, joinable via the admin plane (default 0)
  --seed K         master seed (default 1)
  --udp            run the cluster data plane over loopback UDP (default: channels)
  --max-flows F    MPIL parallel flows of an announce and of a lookup's hedges;
                   a lookup's first attempt carries at most 2 (default 10)
  --replicas R     MPIL replicas (default 3)
  --no-ds          disable duplicate suppression
  --timeout-ms T   longest an attempt waits before the request is re-submitted;
                   a lookup is re-submitted sooner, through another entry
                   node, once it is slower than lookups are measured to be
                   (default 150)
  --retries N      further such periods before a request is given up (default 2)

Stop it with `mpil-load --stop-daemon` or any client sending a drain
frame; the daemon drains in-flight work, joins the shard threads, and
prints its final report as one JSON line.
";

/// `mpil-load --help`.
pub(crate) const LOAD_USAGE: &str = "\
mpil-load — load generator for mpild

Target (pick one):
  --addr HOST:PORT     drive a running mpild over loopback UDP
  --embedded           spawn a daemon thread in-process and drive it
                       (accepts all mpild flags; --ctrl-udp uses real
                       UDP for the control plane even when embedded)

Workload:
  --objects N          object table size / announce count (default 100)
  --lookups K          lookups over the table (default 500)
  --rate R             offered lookup rate per second (open loop);
                       omit for closed loop
  --window W           open-loop in-flight window (default 256)
  --workers C          closed-loop workers (default 16)
  --client-timeout-ms  per-request client deadline (default 2000)
  --seed S             workload seed (default 1)
  --nodes N            origin space (remote default: probed via stats)
  --churn-period-ms P  perturb a volley of nodes every P ms
  --churn-count N      nodes per volley (default 2)
  --churn-length-ms L  perturbation length (default 200)

Gates (exit 1 when violated):
  --min-success PCT    minimum lookup success percentage
  --max-p99-ms MS      maximum lookup p99 latency
  --budget-s S         wall-clock budget for the whole run

Other:
  --stop-daemon        send a drain to the remote daemon afterwards
  --drain-ms D         drain budget for that shutdown (default 500)
";

/// Runs the daemon in the foreground: binds the loopback-UDP control
/// socket, prints the start-up line (how scripts find an ephemeral
/// port, so it is flushed before the potentially slow cluster spawn),
/// serves until a client sends a drain frame, and returns the final
/// report as one JSON line.
///
/// # Errors
///
/// The reason, if the command line cannot be read as written, the
/// control socket cannot bind or the cluster fails to spawn.
pub fn serve(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(SERVE_USAGE.to_string());
    }
    let config = daemon_config(args)?;
    let port: u16 = args.try_value("port")?.unwrap_or(0);
    args.finish()?;
    let ctrl =
        UdpControl::bind(port).map_err(|e| format!("cannot bind control port {port}: {e}"))?;
    let addr = ctrl
        .local_addr()
        .map_err(|e| format!("control socket has no address: {e}"))?;
    println!(
        "{{\"mpild\":\"listening\",\"ctrl_addr\":\"{addr}\",\"nodes\":{},\"degree\":{},\
         \"spares\":{},\"seed\":{},\"transport\":\"{}\"}}",
        config.nodes,
        config.degree,
        config.spares,
        config.seed,
        match config.transport {
            TransportKind::Udp => "udp",
            TransportKind::Channel => "channel",
        },
    );
    let _ = std::io::stdout().flush();
    let daemon = Daemon::spawn(config, ctrl).map_err(|e| e.to_string())?;
    Ok(format!("{}\n", daemon.run().to_json()))
}

/// Drives a daemon — a running one at `--addr`, or one spawned
/// in-process with `--embedded` — with the insert-then-lookup load and
/// returns the report as one JSON line, together with one
/// `GATE FAILED: ..` message per `--min-success`, `--max-p99-ms` or
/// `--budget-s` gate the run broke (exit code 1 in the binary; the
/// report is printed all the same).
///
/// # Errors
///
/// The reason, when the command line cannot be read as written, there
/// is no target, or the daemon is unreachable or fails to spawn.
pub fn load(args: &Args) -> Result<(String, Vec<String>), String> {
    if args.flag("help") {
        return Ok((LOAD_USAGE.to_string(), Vec::new()));
    }
    let gate = |flag| args.try_value::<f64>(flag);
    let (min_success, max_p99) = (gate("min-success")?, gate("max-p99-ms")?);
    let budget = gate("budget-s")?
        .map(|s| Duration::try_from_secs_f64(s).map_err(|e| format!("--budget-s {s}: {e}")))
        .transpose()?;
    let clock = WallClock::start();

    let (load, daemon) = if args.flag("embedded") {
        let dcfg = daemon_config(args)?;
        let lcfg = load_config(args, Some(dcfg.nodes))?;
        let ctrl = if args.flag("ctrl-udp") {
            CtrlKind::Udp
        } else {
            CtrlKind::Channel
        };
        args.finish()?;
        let (load, daemon) = run_embedded(dcfg, &lcfg, ctrl).map_err(|e| e.to_string())?;
        (load, Some(daemon))
    } else {
        let Some(addr) = args.try_value::<SocketAddr>("addr")? else {
            return Err("need --addr HOST:PORT or --embedded (see --help)".to_string());
        };
        // Size the origin space to the actual cluster unless the user
        // pinned it: a stale --nodes turns origins past the daemon's
        // range into BAD_NODE rejects.
        let nodes: Option<usize> = args.try_value("nodes")?;
        let mut lcfg = load_config(args, nodes)?;
        let stop_daemon = args.flag("stop-daemon");
        args.finish()?;
        let mut conn = UdpCtrlClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        if nodes.is_none() {
            lcfg.nodes =
                probe_live_nodes(&mut conn, Duration::from_secs(2)).map_err(|e| e.to_string())?;
            if lcfg.nodes == 0 {
                return Err(format!("the daemon at {addr} reports 0 live nodes"));
            }
        }
        let load = run_load(&mut conn, &lcfg).map_err(|e| e.to_string())?;
        if stop_daemon {
            let drain = CtrlRequest::Drain {
                millis: lcfg.drain.as_millis() as u32,
            };
            let _ = conn.send(&drain.encode(u64::MAX));
        }
        (load, None)
    };

    let report = match daemon {
        Some(daemon) => format!(
            "{{\"load\":{},\"daemon\":{}}}\n",
            load.to_json(),
            daemon.to_json()
        ),
        None => format!("{{\"load\":{}}}\n", load.to_json()),
    };
    let mut failures = Vec::new();
    let (success, p99) = (load.lookup.success_pct(), load.lookup.p99_ms);
    if let Some(min) = min_success.filter(|&min| success < min) {
        failures.push(format!(
            "GATE FAILED: lookup success {success:.2}% < gate {min:.2}%"
        ));
    }
    if let Some(max) = max_p99.filter(|&max| p99 > max) {
        failures.push(format!(
            "GATE FAILED: lookup p99 {p99:.2} ms > gate {max:.2} ms"
        ));
    }
    let took = clock.elapsed();
    if let Some(budget) = budget.filter(|&budget| took >= budget) {
        failures.push(format!(
            "GATE FAILED: mpil-load run took {took:?} (budget {budget:?})"
        ));
    }
    Ok((report, failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from))
    }

    /// A gate, a behaviour or a size that cannot be read as written
    /// fails the run before it starts, with the flag named, instead of
    /// running to exit 0 with the gate, the rate or the churn silently
    /// off, or panicking in the pacer or the workload generator.
    #[test]
    fn load_refuses_a_command_line_it_cannot_read() {
        for (line, named) in [
            ("--min-success 99,9", "--min-success \"99,9\""),
            ("--max-p99 6", "unknown flag --max-p99"),
            ("--max-p99-ms --budget-s 60", "--max-p99-ms needs a value"),
            ("--rate abc", "--rate \"abc\""),
            ("--churn-period-ms x", "--churn-period-ms \"x\""),
            ("--budget-s -1", "--budget-s -1"),
            ("--rate 0", "--rate 0"),
            ("--rate inf", "--rate inf"),
            ("--window 0 --rate 100", "--window 0"),
            ("--workers 0", "--workers 0"),
            ("--objects 0", "--objects 0"),
            ("--nodes 0", "--nodes 0"),
        ] {
            for target in ["--embedded --nodes 16", "--addr 127.0.0.1:9"] {
                let why = load(&args(&format!("{target} {line}")))
                    .expect_err("refused before anything runs");
                assert!(why.contains(named), "{target} {line}: {why}");
            }
        }
    }

    #[test]
    fn serve_refuses_a_command_line_it_cannot_read() {
        for (line, named) in [
            ("--nodes banana", "--nodes \"banana\""),
            ("--nodes --seed 1", "--nodes needs a value"),
            ("--udp yes", "--udp takes no value"),
            ("--max-p99 6", "unknown flag --max-p99"),
        ] {
            let why = serve(&args(line)).expect_err("refused before the socket is bound");
            assert!(why.contains(named), "{line}: {why}");
        }
    }

    #[test]
    fn help_is_not_a_refusal() {
        assert_eq!(serve(&args("--help")), Ok(SERVE_USAGE.to_string()));
        let usage = (LOAD_USAGE.to_string(), Vec::new());
        assert_eq!(load(&args("--help")), Ok(usage));
    }
}
