//! Failure injection: link loss (Castro et al.'s dependability knob)
//! on top of the paper's systems. Small-scale versions of the
//! `ext_link_loss` extension experiment.

use mpil_harness::{run_scenario, EngineSpec, PerturbRun, Scenario};

fn run(loss: f64, flap: f64, seed: u64) -> PerturbRun {
    PerturbRun {
        nodes: 150,
        operations: 25,
        idle_secs: 30,
        offline_secs: 30,
        probability: flap,
        deadline_cap_secs: 60,
        loss_probability: loss,
        seed,
    }
}

#[test]
fn light_loss_is_absorbed_by_both_systems() {
    // 5% loss, no flapping: Pastry's per-hop retransmission and MPIL's
    // flow redundancy should both stay near-perfect.
    let pastry = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, run(0.05, 0.0, 31)));
    let mpil = run_scenario(&Scenario::new(EngineSpec::MPIL_NO_DS, run(0.05, 0.0, 31)));
    assert!(
        pastry.success_rate >= 90.0,
        "Pastry at 5% loss: {}",
        pastry.success_rate
    );
    assert!(
        mpil.success_rate >= 90.0,
        "MPIL at 5% loss: {}",
        mpil.success_rate
    );
}

#[test]
fn heavy_loss_degrades_both_systems() {
    let lossless = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, run(0.0, 0.0, 32)));
    let lossy = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, run(0.5, 0.0, 32)));
    assert!(
        lossy.success_rate < lossless.success_rate,
        "50% loss must hurt Pastry: {} vs {}",
        lossy.success_rate,
        lossless.success_rate
    );
}

#[test]
fn mpil_retains_the_lead_under_combined_loss_and_flapping() {
    // The Figure 11 ordering must survive adding 10% link loss.
    let pastry = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, run(0.1, 0.9, 33)));
    let mpil = run_scenario(&Scenario::new(EngineSpec::MPIL_NO_DS, run(0.1, 0.9, 33)));
    assert!(
        mpil.success_rate > pastry.success_rate,
        "MPIL {} vs Pastry {} under loss+flapping",
        mpil.success_rate,
        pastry.success_rate
    );
}

#[test]
fn loss_injection_is_deterministic() {
    let a = run_scenario(&Scenario::new(EngineSpec::MPIL_DS, run(0.2, 0.3, 34)));
    let b = run_scenario(&Scenario::new(EngineSpec::MPIL_DS, run(0.2, 0.3, 34)));
    assert_eq!(a, b);
}
