//! Kernel-scaling measurement: nodes vs wall-clock vs peak RSS.
//!
//! One [`ScalePoint`] is one engine at one overlay size, driven through
//! the two-stage perturbation methodology — the same
//! [`mpil_harness::PreparedRun`] stages [`mpil_harness::run_scenario`]
//! calls — with per-stage wall-clock timing and a peak-RSS reading
//! taken between them. The `scale_run` binary runs a single point
//! per process so the `VmHWM` reading is attributable to that point; a
//! curve is composed from many such invocations (the benchmark's
//! `sim-engines` workload, `benchmark/README.md`, is the ledger of
//! record for the kernel's speed).

use mpil_harness::{EngineSpec, PerturbRun, Scenario};
use mpil_workload::{peak_rss_mib, WallClock};

/// One measured point on a scaling curve.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Engine label (from [`EngineSpec::label`]).
    pub engine: String,
    /// Overlay size.
    pub nodes: usize,
    /// Number of insert+lookup operations driven.
    pub operations: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Flapping probability during stage 2.
    pub probability: f64,
    /// Wall-clock seconds to build the converged engine.
    pub build_s: f64,
    /// Wall-clock seconds for stage 1 (inserts to quiescence).
    pub insert_s: f64,
    /// Wall-clock seconds for stage 2 (perturbed lookups).
    pub lookup_s: f64,
    /// Total wall-clock seconds (build + stages).
    pub total_s: f64,
    /// Peak resident set size of this process, in MiB (`VmHWM`), read
    /// after the run; 0.0 where `/proc` is unavailable.
    pub peak_rss_mib: f64,
    /// Lookup success rate (%), a sanity check that the scenario ran.
    pub success_rate: f64,
    /// Raw kernel sends over the whole run.
    pub sent: u64,
    /// Lookup-class messages during stage 2 (the numerator of the
    /// msgs/lookup traffic tripwire).
    pub lookup_msgs: u64,
    /// Kernel events (deliveries + timer fires) during stage 2 — the
    /// steady-state denominator for `allocs`.
    pub events: u64,
    /// Heap allocations during stage 2, from [`mpil_alloc::snapshot`].
    /// Zero unless the running binary installs
    /// [`mpil_alloc::CountingAlloc`] as its global allocator (the
    /// `scale_run` binary does).
    pub allocs: u64,
}

impl ScalePoint {
    /// Renders the point as one self-describing JSON object line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"engine\": \"{}\", \"nodes\": {}, \"ops\": {}, \"seed\": {}, \"p\": {}, \
             \"build_s\": {:.3}, \"insert_s\": {:.3}, \"lookup_s\": {:.3}, \"total_s\": {:.3}, \
             \"peak_rss_mib\": {:.1}, \"success_rate\": {:.1}, \"sent\": {}, \"events\": {}, \
             \"allocs\": {}, \"allocs_per_event\": {:.4}, \"lookup_msgs\": {}, \
             \"msgs_per_lookup\": {:.1}}}",
            self.engine,
            self.nodes,
            self.operations,
            self.seed,
            self.probability,
            self.build_s,
            self.insert_s,
            self.lookup_s,
            self.total_s,
            self.peak_rss_mib,
            self.success_rate,
            self.sent,
            self.events,
            self.allocs,
            self.allocs_per_event(),
            self.lookup_msgs,
            self.msgs_per_lookup(),
        )
    }

    /// Stage-2 lookup-class messages per lookup driven — what the
    /// `scale_run --max-msgs-per-lookup` tripwire budgets.
    pub fn msgs_per_lookup(&self) -> f64 {
        self.lookup_msgs as f64 / self.operations.max(1) as f64
    }

    /// Stage-2 heap allocations per kernel event — ~0 when the message
    /// plane is allocation-free in steady state (and exactly 0.0 when
    /// the counting allocator is not installed).
    pub fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

/// Runs one scaling point: the stages of [`mpil_harness::run_scenario`]
/// with a stopwatch around each and the stage-2 counters read on
/// either side of the perturbed stage, warm-up included.
pub fn run_point(spec: EngineSpec, nodes: usize, ops: usize, p: f64, seed: u64) -> ScalePoint {
    let mut run = PerturbRun::new(30, 30, p);
    run.nodes = nodes;
    run.operations = ops;
    run.seed = seed;
    let scenario = Scenario::new(spec, run);

    let t0 = WallClock::start();
    let mut prepared = scenario.build();
    let build_s = t0.elapsed_s();

    let t1 = WallClock::start();
    prepared.insert_all();
    let insert_s = t1.elapsed_s();

    let stats_before = prepared.engine.net_stats();
    let counters_before = prepared.engine.counters();
    let allocs_before = mpil_alloc::snapshot();
    let t2 = WallClock::start();
    let flap_start = prepared.perturb(&run);
    let handles = prepared.lookups(&run, flap_start);
    let lookup_s = t2.elapsed_s();
    let stats_after = prepared.engine.net_stats();
    let counters_after = prepared.engine.counters();
    let allocs_after = mpil_alloc::snapshot();

    ScalePoint {
        engine: scenario.label(),
        nodes,
        operations: ops,
        seed,
        probability: p,
        build_s,
        insert_s,
        lookup_s,
        total_s: t0.elapsed_s(),
        peak_rss_mib: peak_rss_mib().unwrap_or(0.0),
        success_rate: prepared.tally(&handles).success_rate,
        sent: stats_after.sent,
        lookup_msgs: counters_after.lookup_messages - counters_before.lookup_messages,
        events: (stats_after.delivered - stats_before.delivered)
            + (stats_after.timers_fired - stats_before.timers_fired),
        allocs: allocs_after.since(allocs_before).allocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_point_runs_and_reports() {
        let spec = EngineSpec::named("mpil-regular").expect("a system");
        let p = run_point(spec, 200, 5, 0.5, 3);
        assert_eq!(p.nodes, 200);
        assert_eq!(p.operations, 5);
        assert!(p.total_s >= p.build_s);
        assert!(p.sent > 0);
        assert!(p.success_rate >= 0.0);
        let json = p.to_json();
        assert!(json.contains("\"nodes\": 200"), "{json}");
        assert!(json.contains("\"peak_rss_mib\""), "{json}");
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        }
    }
}
