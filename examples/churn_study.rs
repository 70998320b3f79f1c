//! Perturbation study: MPIL vs Pastry under flapping nodes — a miniature
//! of the paper's Figure 11 experiment, runnable in seconds.
//!
//! ```text
//! cargo run --release --example churn_study
//! ```
//!
//! Builds a 300-node Pastry overlay, inserts 40 objects, then flaps nodes
//! (30 s online / 30 s offline) at increasing probabilities and compares
//! lookup success of Pastry routing (with full maintenance) against MPIL
//! routing over the *same frozen overlay* with zero maintenance.

use mpil_harness::{run_scenario, EngineSpec, PerturbRun, Scenario};

fn main() {
    println!("perturbation study: 300 nodes, 40 lookups per point, idle:offline = 30:30\n");
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "flap p", "MSPastry", "MPIL w/ DS", "MPIL w/o DS"
    );
    for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let run = PerturbRun {
            nodes: 300,
            operations: 40,
            idle_secs: 30,
            offline_secs: 30,
            probability: p,
            deadline_cap_secs: 60,
            loss_probability: 0.0,
            seed: 11,
        };
        let pastry = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, run));
        let mpil_ds = run_scenario(&Scenario::new(EngineSpec::MPIL_DS, run));
        let mpil_no = run_scenario(&Scenario::new(EngineSpec::MPIL_NO_DS, run));
        println!(
            "{p:>10.2} {:>11.1}% {:>13.1}% {:>13.1}%",
            pastry.success_rate, mpil_ds.success_rate, mpil_no.success_rate
        );
    }
    println!("\nMPIL's redundant flows keep finding replicas while Pastry's");
    println!("single path fails whenever the root (or a hop) is perturbed.");
}
