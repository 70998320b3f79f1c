//! Integration tests of the perturbation experiments (small scale): the
//! paper's headline claims must hold on miniature runs.

use mpil_harness::{run_scenario, EngineSpec, PerturbRun, Scenario};

fn run(nodes: usize, ops: usize, idle: u64, offline: u64, p: f64, seed: u64) -> PerturbRun {
    PerturbRun {
        nodes,
        operations: ops,
        idle_secs: idle,
        offline_secs: offline,
        probability: p,
        deadline_cap_secs: 60,
        loss_probability: 0.0,
        seed,
    }
}

#[test]
fn both_systems_near_perfect_unperturbed() {
    for system in [
        EngineSpec::MSPASTRY,
        EngineSpec::MSPASTRY_RR,
        EngineSpec::MPIL_DS,
        EngineSpec::MPIL_NO_DS,
    ] {
        let r = run_scenario(&Scenario::new(system, run(150, 25, 30, 30, 0.0, 21)));
        assert!(
            r.success_rate >= 96.0,
            "{} at p=0: {}",
            system.label(),
            r.success_rate
        );
    }
}

#[test]
fn paper_headline_mpil_beats_pastry_under_heavy_perturbation() {
    // Figure 11's core claim, at 30:30 and 300:300 with high p.
    for (idle, offline) in [(30u64, 30u64), (300, 300)] {
        let pastry = run_scenario(&Scenario::new(
            EngineSpec::MSPASTRY,
            run(200, 30, idle, offline, 0.9, 22),
        ));
        let mpil = run_scenario(&Scenario::new(
            EngineSpec::MPIL_NO_DS,
            run(200, 30, idle, offline, 0.9, 22),
        ));
        assert!(
            mpil.success_rate > pastry.success_rate,
            "{idle}:{offline}: MPIL {} <= Pastry {}",
            mpil.success_rate,
            pastry.success_rate
        );
    }
}

#[test]
fn mpil_without_ds_at_least_as_robust_as_with_ds() {
    // The paper: "MPIL without DS always gives higher success rates than
    // MPIL with the duplicate suppression" (dynamic overlays). Averaged
    // over settings to damp small-sample noise.
    let mut with_ds = 0.0;
    let mut without_ds = 0.0;
    for seed in [23u64, 24, 25] {
        let a = run_scenario(&Scenario::new(
            EngineSpec::MPIL_DS,
            run(200, 30, 300, 300, 1.0, seed),
        ));
        let b = run_scenario(&Scenario::new(
            EngineSpec::MPIL_NO_DS,
            run(200, 30, 300, 300, 1.0, seed),
        ));
        with_ds += a.success_rate;
        without_ds += b.success_rate;
    }
    assert!(
        without_ds >= with_ds,
        "w/o DS {without_ds} should beat w/ DS {with_ds}"
    );
}

#[test]
fn rr_improves_pastry_under_perturbation() {
    // Replication on Route leaves replicas along the (shared-origin)
    // path, so it should not hurt and usually helps.
    let mut plain = 0.0;
    let mut rr = 0.0;
    for seed in [26u64, 27, 28] {
        plain += run_scenario(&Scenario::new(
            EngineSpec::MSPASTRY,
            run(200, 30, 300, 300, 0.8, seed),
        ))
        .success_rate;
        rr += run_scenario(&Scenario::new(
            EngineSpec::MSPASTRY_RR,
            run(200, 30, 300, 300, 0.8, seed),
        ))
        .success_rate;
    }
    assert!(
        rr >= plain,
        "RR {rr} should not be worse than plain {plain}"
    );
}

#[test]
fn mpil_traffic_exceeds_pastry_lookup_traffic() {
    // Figure 12 left: MPIL multicasts, so its lookup traffic dwarfs
    // Pastry's single path...
    let run_cfg = run(200, 30, 30, 30, 0.3, 29);
    let pastry = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, run_cfg));
    let mpil = run_scenario(&Scenario::new(EngineSpec::MPIL_NO_DS, run_cfg));
    assert!(
        mpil.lookup_messages > pastry.lookup_messages,
        "MPIL {} vs Pastry {} lookup msgs",
        mpil.lookup_messages,
        pastry.lookup_messages
    );
    // ...while Figure 12 right: Pastry's total including maintenance
    // dwarfs MPIL's maintenance-free total.
    assert!(
        pastry.total_messages > mpil.total_messages,
        "Pastry total {} vs MPIL total {}",
        pastry.total_messages,
        mpil.total_messages
    );
}

#[test]
fn mpil_replica_count_matches_paper_expectation() {
    // Section 6.2: with 10 max flows and 5 per-flow replicas over the
    // Pastry overlay, "the number of replicas actually inserted ... is
    // typically 6-7".
    let r = run_scenario(&Scenario::new(
        EngineSpec::MPIL_DS,
        run(1000, 40, 30, 30, 0.0, 30),
    ));
    assert!(
        r.mean_replicas >= 4.0 && r.mean_replicas <= 12.0,
        "mean replicas {} outside the paper's ballpark",
        r.mean_replicas
    );
}

#[test]
fn perturbation_monotone_in_probability_for_pastry() {
    // More flapping cannot systematically help (allow small noise).
    let lo = run_scenario(&Scenario::new(
        EngineSpec::MSPASTRY,
        run(200, 40, 30, 30, 0.2, 31),
    ));
    let hi = run_scenario(&Scenario::new(
        EngineSpec::MSPASTRY,
        run(200, 40, 30, 30, 1.0, 31),
    ));
    assert!(
        lo.success_rate >= hi.success_rate - 5.0,
        "p=0.2 {} vs p=1.0 {}",
        lo.success_rate,
        hi.success_rate
    );
}
