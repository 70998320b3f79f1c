//! What [`crate::OverlaySource`] graphs and the maintained-DHT
//! baselines must show under [`crate::run_scenario`] (the
//! overlay-independence and baseline-independence extensions).
//!
//! Test-only. The module path is the one these tests have always had,
//! so their ids stay stable across the suite's history.

#[cfg(test)]
mod tests {
    use mpil_overlay::NodeIdx;

    use crate::{mean_out_degree, run_scenario, EngineSpec, OverlaySource, PerturbRun, Scenario};

    const SOURCES: [OverlaySource; 5] = [
        OverlaySource::Pastry,
        OverlaySource::Chord,
        OverlaySource::Kademlia,
        OverlaySource::RandomRegular(8),
        OverlaySource::PowerLaw,
    ];

    fn mini(p: f64) -> PerturbRun {
        PerturbRun {
            nodes: 120,
            operations: 15,
            idle_secs: 30,
            offline_secs: 30,
            probability: p,
            deadline_cap_secs: 60,
            loss_probability: 0.0,
            seed: 3,
        }
    }

    fn success_rate(spec: EngineSpec, run: PerturbRun) -> f64 {
        run_scenario(&Scenario::new(spec, run)).success_rate
    }

    #[test]
    fn every_source_builds_a_usable_graph() {
        for src in SOURCES {
            let (ids, nbrs) = src.build(100, 5);
            assert_eq!(ids.len(), 100, "{}", src.label());
            assert_eq!(nbrs.len(), 100);
            assert!(mean_out_degree(&nbrs) >= 1.0, "{}", src.label());
            for (i, list) in nbrs.iter().enumerate() {
                assert!(
                    !list.contains(&NodeIdx::new(i as u32)),
                    "{}: node {i} lists itself",
                    src.label()
                );
            }
        }
    }

    #[test]
    fn mpil_is_near_perfect_on_every_overlay_unperturbed() {
        for src in SOURCES {
            let rate = success_rate(EngineSpec::MpilOver(src), mini(0.0));
            assert!(rate >= 90.0, "{}: {rate}", src.label());
        }
    }

    #[test]
    fn chord_baseline_runs_and_degrades() {
        let calm = success_rate(EngineSpec::Chord, mini(0.0));
        let storm = success_rate(EngineSpec::Chord, mini(0.95));
        assert!(calm >= 90.0, "calm {calm}");
        assert!(storm <= calm, "storm {storm} calm {calm}");
    }

    #[test]
    fn kademlia_single_copy_baseline_runs() {
        let calm = success_rate(EngineSpec::Kademlia { k: 1, alpha: 1 }, mini(0.0));
        assert!(calm >= 85.0, "calm {calm}");
    }

    #[test]
    fn labels_are_informative() {
        let stock = EngineSpec::KADEMLIA;
        assert!(stock.label().contains("k=8"));
        assert!(OverlaySource::RandomRegular(16).label().contains("16"));
    }
}
