//! What the two-stage methodology ([`crate::run_scenario`]) must show
//! on the paper's four systems (Sections 3 and 6.2).
//!
//! Test-only. The module path is the one these tests have always had,
//! so their ids stay stable across the suite's history.

#[cfg(test)]
mod tests {
    use crate::{fan_out, run_scenario, EngineSpec, PerturbResult, PerturbRun, Scenario};

    fn small_run(idle: u64, offline: u64, p: f64) -> PerturbRun {
        PerturbRun {
            nodes: 120,
            operations: 20,
            idle_secs: idle,
            offline_secs: offline,
            probability: p,
            deadline_cap_secs: 60,
            loss_probability: 0.0,
            seed: 1,
        }
    }

    fn run(spec: EngineSpec, run: PerturbRun) -> PerturbResult {
        run_scenario(&Scenario::new(spec, run))
    }

    #[test]
    fn pastry_near_perfect_without_perturbation() {
        let r = run(EngineSpec::MSPASTRY, small_run(30, 30, 0.0));
        assert!(r.success_rate > 95.0, "p=0 success {}", r.success_rate);
        assert!((r.mean_replicas - 1.0).abs() < 1e-9, "single root replica");
    }

    #[test]
    fn mpil_near_perfect_without_perturbation() {
        let r = run(EngineSpec::MPIL_DS, small_run(30, 30, 0.0));
        assert!(r.success_rate > 95.0, "p=0 success {}", r.success_rate);
        assert!(r.mean_replicas > 1.5, "MPIL should store multiple replicas");
    }

    #[test]
    fn perturbation_hurts_pastry_more_than_mpil() {
        let storm = small_run(300, 300, 1.0);
        let pastry = run(EngineSpec::MSPASTRY, storm);
        let mpil = run(EngineSpec::MPIL_NO_DS, storm);
        assert!(
            mpil.success_rate > pastry.success_rate,
            "MPIL {} vs Pastry {}",
            mpil.success_rate,
            pastry.success_rate
        );
    }

    #[test]
    fn rr_stores_more_replicas() {
        let plain = run(EngineSpec::MSPASTRY, small_run(30, 30, 0.0));
        let rr = run(EngineSpec::MSPASTRY_RR, small_run(30, 30, 0.0));
        assert!(rr.mean_replicas > plain.mean_replicas);
    }

    #[test]
    fn run_points_matches_sequential() {
        let points = [
            Scenario::new(EngineSpec::MPIL_DS, small_run(30, 30, 0.5)),
            Scenario::new(EngineSpec::MSPASTRY, small_run(30, 30, 0.5)),
        ];
        let par = fan_out(&points, run_scenario);
        let seq: Vec<_> = points.iter().map(run_scenario).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels = EngineSpec::FIGURE_11.map(|spec| spec.label());
        labels.sort_unstable();
        assert!(labels.windows(2).all(|pair| pair[0] != pair[1]));
    }
}
