//! # mpil-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation. Each `src/bin/*` binary prints one table or
//! figure's rows/series; this library holds the shared experiment
//! runners so the binaries, the integration tests, and the Criterion
//! performance benches all exercise the same code.
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
//! `ext_gossip_discovery` (the epidemic `mpil-gossip` engine — k-walk
//! and expanding-ring — vs DHTs vs MPIL over the gossip views).
//!
//! All binaries accept `--full` (paper-scale parameters), `--csv`
//! (machine-readable output), and `--seed <u64>`.
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

pub use mpil_workload::cli::{self, Args};
