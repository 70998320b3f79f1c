//! # mpil-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation. Each `src/bin/*` binary prints one table or
//! figure's rows/series; this library holds the shared experiment
//! runners so the binaries and the integration tests exercise the same
//! code.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Figure 1 (MSPastry under perturbation) | `fig1_pastry_perturbation` |
//! | Figure 7 (expected local maxima) | `fig7_local_maxima` |
//! | Figure 8 (expected replicas, complete) | `fig8_complete_replicas` |
//! | Figure 9 (insertion behavior) | `fig9_insertion` |
//! | Figure 10 (lookup latency & traffic) | `fig10_lookup_cost` |
//! | Tables 1–2 (lookup success rates) | `table1_2_lookup_success` |
//! | Table 3 (actual flows) | `table3_flows` |
//! | Figure 11 (success under perturbation, 4 systems) | `fig11_perturbation` |
//! | Figure 12 (lookup & total traffic) | `fig12_traffic` |
//!
//! Beyond the paper: `ablation_split_policy`, `ablation_metric`,
//! `ablation_baselines` (flooding / random walks), `ext_churn_traces`
//! (trace-driven churn), `ext_link_loss` (loss injection),
//! `ext_overlay_independence` (five overlay families),
//! `ext_dht_comparison` (Chord / Kademlia baselines), and
//! `ext_gossip_discovery` (k-walk and expanding-ring searches over
//! HyParView views vs DHTs vs MPIL over the frozen active graph).
//!
//! All binaries accept `--full` (paper-scale parameters), `--csv`
//! (machine-readable output), and `--seed <u64>`; each refuses, with
//! exit status 2 and the flag named, a command line it cannot read
//! (see [`print`]).
//!
//! Since the `mpil-harness` refactor, every binary is a thin shim over
//! a [`figures`] function: the experiments fan out through
//! [`mpil_harness::ExperimentRunner`] and drive the engines through
//! [`mpil_harness::DiscoveryEngine`], and all output goes through
//! [`mpil_harness::Report`]; the systems are named by
//! [`mpil_harness::EngineSpec`] directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod scale;
pub mod scale_curve;
pub mod static_exp;

pub use mpil_workload::Args;

use mpil_harness::Report;

/// The whole `main` of a figure binary: prints the report `figure`
/// builds from the process arguments, as CSV under `--csv` (see
/// [`run`]).
pub fn print(figure: fn(&Args) -> Result<Report, String>) {
    let (report, args) = run(figure);
    report.print(args.flag("csv"));
}

/// Runs a binary's `driver` on the process arguments and returns what
/// it built, with the arguments. A command line the driver refuses
/// ([`Args::finish`]) exits 2 with the flag named, before any work has
/// started.
pub fn run<T>(driver: fn(&Args) -> Result<T, String>) -> (T, Args) {
    let args = Args::parse_env();
    match driver(&args) {
        Ok(out) => (out, args),
        Err(why) => {
            let binary = std::env::args().next().unwrap_or_default();
            let name = std::path::Path::new(&binary).file_name();
            eprintln!("{}: {why}", name.unwrap_or_default().to_string_lossy());
            std::process::exit(2);
        }
    }
}
