//! `mpil-load` — load generator for `mpild`.
//!
//! Runs the paper's insert-then-lookup workload against a daemon:
//! announce phase closed-loop, lookup phase at a configurable offered
//! rate (open loop, bounded in-flight window) or closed-loop, with
//! optional flapping churn injected through the admin plane mid-run.
//! Prints one JSON line with latency percentiles and success rates,
//! and exits non-zero when a `--min-success` / `--max-p99-ms` gate (or
//! the `--budget-s` wall-clock budget) is violated.
//!
//! ```text
//! mpil-load --addr 127.0.0.1:PORT [workload flags] [gates]
//! mpil-load --embedded [--ctrl-udp] [daemon flags] [workload flags] [gates]
//!
//! workload: --objects N --lookups K --rate R --window W --workers C
//!           --client-timeout-ms T --seed S --drain-ms D
//!           --churn-period-ms P --churn-count N --churn-length-ms L
//! gates:    --min-success PCT --max-p99-ms MS --budget-s S
//! ```

use std::time::Duration;

use mpil_harness::WallClockBudget;
use mpil_workload::Args;
use mpild::{
    args, probe_live_nodes, run_embedded, run_load, CtrlKind, CtrlRequest, LoadReport,
    UdpCtrlClient,
};

const USAGE: &str = "\
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

fn gate_failures(a: &Args, report: &LoadReport) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(min) = a.value("min-success").and_then(|v| v.parse::<f64>().ok()) {
        let got = report.lookup.success_pct();
        if got < min {
            failures.push(format!("lookup success {got:.2}% < gate {min:.2}%"));
        }
    }
    if let Some(max) = a.value("max-p99-ms").and_then(|v| v.parse::<f64>().ok()) {
        let got = report.lookup.p99_ms;
        if got > max {
            failures.push(format!("lookup p99 {got:.2} ms > gate {max:.2} ms"));
        }
    }
    failures
}

fn main() {
    let a = Args::parse_env();
    if a.flag("help") {
        print!("{USAGE}");
        return;
    }
    let budget = a
        .value("budget-s")
        .and_then(|v| v.parse::<f64>().ok())
        .map(|s| WallClockBudget::start(Duration::from_secs_f64(s)));

    let (report, daemon_json) = if a.flag("embedded") {
        let dcfg = args::daemon_config(&a);
        let lcfg = args::load_config(&a, dcfg.nodes);
        let ctrl = if a.flag("ctrl-udp") {
            CtrlKind::Udp
        } else {
            CtrlKind::Channel
        };
        match run_embedded(dcfg, &lcfg, ctrl) {
            Ok((report, daemon_report)) => (report, Some(daemon_report.to_json())),
            Err(e) => {
                eprintln!("mpil-load: {e}");
                std::process::exit(2);
            }
        }
    } else {
        let Some(addr) = a.value("addr").and_then(|v| v.parse().ok()) else {
            eprintln!("mpil-load: need --addr HOST:PORT or --embedded (see --help)");
            std::process::exit(2);
        };
        let mut conn = match UdpCtrlClient::connect(addr) {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("mpil-load: connect {addr}: {e}");
                std::process::exit(2);
            }
        };
        // Size the origin space to the actual cluster unless the user
        // pinned it: a stale --nodes turns origins past the daemon's
        // range into BAD_NODE rejects.
        let nodes = match a.value("nodes").and_then(|v| v.parse().ok()) {
            Some(n) => n,
            None => match probe_live_nodes(&mut conn, Duration::from_secs(2)) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("mpil-load: {e}");
                    std::process::exit(2);
                }
            },
        };
        let lcfg = args::load_config(&a, nodes);
        let report = match run_load(&mut conn, &lcfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("mpil-load: {e}");
                std::process::exit(2);
            }
        };
        if a.flag("stop-daemon") {
            use mpild::CtrlConnection;
            let drain = CtrlRequest::Drain {
                millis: lcfg.drain.as_millis() as u32,
            };
            let _ = conn.send(&drain.encode(u64::MAX));
        }
        (report, None)
    };

    match daemon_json {
        Some(daemon) => println!("{{\"load\":{},\"daemon\":{}}}", report.to_json(), daemon),
        None => println!("{{\"load\":{}}}", report.to_json()),
    }

    let mut failures = gate_failures(&a, &report);
    if let Some(budget) = budget {
        if let Err(e) = budget.check("mpil-load run") {
            failures.push(e);
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("mpil-load: GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
