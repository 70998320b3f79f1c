//! Tiny-scale smoke tests of every figure/table runner: each must
//! produce structurally sane output fast, so a regression in any
//! experiment path is caught by `cargo test` without running the full
//! binaries.

use mpil::MpilConfig;
use mpil_analysis::AnalysisModel;
use mpil_bench::static_exp::{insertion_behavior, lookup_behavior, paper_insert_config, Family};
use mpil_harness::{run_scenario, EngineSpec, PerturbRun, Scenario};

fn mini(system_idle: u64, offline: u64, p: f64) -> PerturbRun {
    PerturbRun {
        nodes: 100,
        operations: 12,
        idle_secs: system_idle,
        offline_secs: offline,
        probability: p,
        deadline_cap_secs: 60,
        loss_probability: 0.0,
        seed: 77,
    }
}

#[test]
fn fig1_point_runs() {
    let r = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, mini(30, 30, 0.5)));
    assert!((0.0..=100.0).contains(&r.success_rate));
    assert!(r.total_messages > 0);
}

#[test]
fn fig7_series_is_monotone() {
    let model = AnalysisModel::base4();
    let mut prev = f64::INFINITY;
    for d in (10..=100).step_by(10) {
        let v = model.expected_local_maxima_regular(4000, d);
        assert!(v > 0.0 && v < prev, "d={d}: {v} (prev {prev})");
        prev = v;
    }
    // Doubling N doubles the expectation exactly.
    let a = model.expected_local_maxima_regular(4000, 30);
    let b = model.expected_local_maxima_regular(8000, 30);
    assert!((b - 2.0 * a).abs() < 1e-9);
}

#[test]
fn fig8_series_in_paper_band() {
    let model = AnalysisModel::base4();
    for n in [2000usize, 8000, 16000] {
        let v = model.expected_replicas_complete(n);
        assert!((1.4..1.8).contains(&v), "N={n}: {v}");
    }
}

#[test]
fn fig9_point_runs() {
    let b = insertion_behavior(Family::PowerLaw, 300, 1, 20, paper_insert_config(), 3);
    assert_eq!(b.insertions, 20);
    assert!(b.mean_replicas >= 1.0);
    assert!(b.mean_traffic >= b.mean_replicas - 1.0);
}

#[test]
fn tables_point_runs() {
    let lookup = MpilConfig::default()
        .with_max_flows(10)
        .with_num_replicas(3);
    let b = lookup_behavior(
        Family::Random { degree: 20 },
        300,
        1,
        20,
        paper_insert_config(),
        lookup,
        4,
    );
    assert_eq!(b.lookups, 20);
    assert!(b.success_rate > 50.0, "got {}", b.success_rate);
    assert!(b.mean_flows <= 10.0, "flow budget respected");
}

#[test]
fn fig10_metrics_consistent() {
    let lookup = MpilConfig::default()
        .with_max_flows(10)
        .with_num_replicas(5);
    let b = lookup_behavior(
        Family::PowerLaw,
        300,
        1,
        20,
        paper_insert_config(),
        lookup,
        5,
    );
    if b.success_rate > 0.0 {
        assert!(b.mean_hops >= 0.0);
        assert!(b.mean_traffic_to_first_reply <= b.mean_traffic + 1e-9);
    }
}

#[test]
fn fig11_ordering_holds_at_extreme_perturbation() {
    let run = mini(300, 300, 1.0);
    let pastry = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, run));
    let mpil = run_scenario(&Scenario::new(EngineSpec::MPIL_NO_DS, run));
    assert!(
        mpil.success_rate >= pastry.success_rate,
        "MPIL {} vs Pastry {}",
        mpil.success_rate,
        pastry.success_rate
    );
}

#[test]
fn fig12_traffic_relations_hold() {
    let run = mini(30, 30, 0.4);
    let pastry = run_scenario(&Scenario::new(EngineSpec::MSPASTRY, run));
    let mpil = run_scenario(&Scenario::new(EngineSpec::MPIL_DS, run));
    assert!(mpil.lookup_messages > pastry.lookup_messages);
    assert!(pastry.total_messages > mpil.total_messages);
}
