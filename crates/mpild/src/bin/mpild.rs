//! `mpild` — the MPIL service daemon.
//!
//! Hosts a live MPIL cluster (one shard thread per core) behind a loopback-UDP
//! control socket. Prints one JSON line on startup (with the bound
//! control address) and one final JSON report after a `drain` request
//! shuts it down.
//!
//! ```text
//! mpild [--port P] [--nodes N] [--degree D] [--spares S] [--seed K]
//!       [--udp] [--max-flows F] [--replicas R] [--no-ds]
//!       [--timeout-ms T] [--retries N]
//! ```

use std::io::Write;

use mpil_workload::Args;
use mpild::{args, Daemon, UdpControl};

const USAGE: &str = "\
mpild — MPIL service daemon (control plane on loopback UDP)

  --port P         control port (default 0 = ephemeral, printed on stdout)
  --nodes N        overlay nodes in service (default 48)
  --degree D       regular-graph degree (default 8)
  --spares S       parked spare nodes, joinable via the admin plane (default 0)
  --seed K         master seed (default 1)
  --udp            run the cluster data plane over loopback UDP (default: channels)
  --max-flows F    MPIL parallel flows (default 10)
  --replicas R     MPIL replicas (default 3)
  --no-ds          disable duplicate suppression
  --timeout-ms T   per-request timeout before a retry (default 150)
  --retries N      retries per request (default 2)

Stop it with `mpil-load --stop-daemon` or any client sending a drain
frame; the daemon drains in-flight work, joins the shard threads, and
prints its final report as one JSON line.
";

fn main() {
    let a = Args::parse_env();
    if a.flag("help") {
        print!("{USAGE}");
        return;
    }
    let config = args::daemon_config(&a);
    let port: u16 = a.value_or("port", 0);
    let ctrl = match UdpControl::bind(port) {
        Ok(ctrl) => ctrl,
        Err(e) => {
            eprintln!("mpild: cannot bind control port {port}: {e}");
            std::process::exit(2);
        }
    };
    let addr = match ctrl.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("mpild: control socket has no address: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{{\"mpild\":\"listening\",\"ctrl_addr\":\"{addr}\",\"nodes\":{},\"degree\":{},\
         \"spares\":{},\"seed\":{},\"transport\":\"{}\"}}",
        config.nodes,
        config.degree,
        config.spares,
        config.seed,
        if a.flag("udp") { "udp" } else { "channel" },
    );
    // The startup line is how scripts find the port — get it out before
    // the (potentially slow) cluster spawn.
    let _ = std::io::stdout().flush();
    let daemon = match Daemon::spawn(config, ctrl) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("mpild: {e}");
            std::process::exit(2);
        }
    };
    let report = daemon.run();
    println!("{}", report.to_json());
}
