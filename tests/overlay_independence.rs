//! The paper's central claim, as an invariant: one MPIL configuration
//! must work across *every* overlay family — structured (Pastry, Chord,
//! Kademlia pointer graphs) and unstructured (random, power-law) —
//! without parameter retuning.

use mpil_harness::{
    mean_out_degree, run_scenario, EngineSpec, OverlaySource, PerturbRun, Scenario,
};

const SOURCES: [OverlaySource; 5] = [
    OverlaySource::Pastry,
    OverlaySource::Chord,
    OverlaySource::Kademlia,
    OverlaySource::RandomRegular(12),
    OverlaySource::PowerLaw,
];

fn mini(p: f64, seed: u64) -> PerturbRun {
    PerturbRun {
        nodes: 150,
        operations: 20,
        idle_secs: 30,
        offline_secs: 30,
        probability: p,
        deadline_cap_secs: 60,
        loss_probability: 0.0,
        seed,
    }
}

#[test]
fn one_configuration_works_on_every_family() {
    for src in SOURCES {
        let r = run_scenario(&Scenario::new(EngineSpec::MpilOver(src), mini(0.0, 51)));
        assert!(
            r.success_rate >= 90.0,
            "{}: success {} below bar",
            src.label(),
            r.success_rate
        );
        assert!(
            r.mean_replicas >= 2.0,
            "{}: too few replicas ({})",
            src.label(),
            r.mean_replicas
        );
    }
}

#[test]
fn cost_stays_in_one_band_across_families() {
    // Lookup traffic must not blow up on any family: the quota bounds it
    // at max_flows × path work, independent of the graph.
    let mut costs = Vec::new();
    for src in SOURCES {
        let r = run_scenario(&Scenario::new(EngineSpec::MpilOver(src), mini(0.0, 52)));
        let per_lookup = r.lookup_messages as f64 / 20.0;
        assert!(
            per_lookup <= 60.0,
            "{}: {per_lookup} msgs/lookup breaks the quota band",
            src.label()
        );
        costs.push(per_lookup);
    }
    let max = costs.iter().cloned().fold(f64::MIN, f64::max);
    let min = costs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min <= 4.0,
        "cost varies {min:.1}-{max:.1} msgs/lookup across families — not overlay-independent"
    );
}

#[test]
fn structured_pointer_graphs_have_sane_shape() {
    for src in [
        OverlaySource::Pastry,
        OverlaySource::Chord,
        OverlaySource::Kademlia,
    ] {
        let (ids, nbrs) = src.build(150, 53);
        assert_eq!(ids.len(), 150);
        let d = mean_out_degree(&nbrs);
        assert!(
            (4.0..=80.0).contains(&d),
            "{}: out-degree {d} outside plausible range",
            src.label()
        );
    }
}

#[test]
fn moderate_perturbation_does_not_break_any_family() {
    for src in SOURCES {
        let r = run_scenario(&Scenario::new(EngineSpec::MpilOver(src), mini(0.5, 54)));
        assert!(
            r.success_rate >= 75.0,
            "{} at p=0.5: {}",
            src.label(),
            r.success_rate
        );
    }
}
