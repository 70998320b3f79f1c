//! The [`ExperimentRunner`]: one drive loop, many engines, many seeds.
//!
//! [`run_scenario`] reads the paper's two-stage perturbation
//! methodology (Sections 3 and 6.2) off [`PreparedRun`]: stage 1
//! inserts the workload from the designated origin on the quiet
//! network; stage 2 perturbs everything but the origin and issues one
//! lookup per flapping period. Every engine runs through those exact
//! stages via [`DiscoveryEngine`], so cross-engine numbers are produced
//! by construction-identical measurement code.
//!
//! [`DiscoveryEngine`]: crate::DiscoveryEngine
//!
//! [`ExperimentRunner`] fans independent work items — scenario points
//! or seeds — across a bounded pool of `std::thread::scope` threads.
//! Each item's RNG streams derive only from its own scenario seed and
//! results are collected in input order, so a parallel run is
//! bit-identical to a sequential one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mpil_workload::RunningStats;

use crate::scenario::{PerturbRun, PreparedRun, Scenario};

/// What one perturbation scenario measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbResult {
    /// Percentage of lookups answered positively before their deadline.
    pub success_rate: f64,
    /// Lookup-message transmissions (Figure 12, left).
    pub lookup_messages: u64,
    /// All messages sent, including maintenance and acks (Figure 12,
    /// right).
    pub total_messages: u64,
    /// Mean forward-path hops of successful replies.
    pub mean_reply_hops: f64,
    /// Mean replicas per object after stage 1.
    pub mean_replicas: f64,
}

/// Runs one scenario through the two-stage methodology.
pub fn run_scenario(scenario: &Scenario) -> PerturbResult {
    run_prepared(&mut scenario.build(), &scenario.run)
}

/// The two stages on an engine the caller built and keeps — for a
/// driver that appends a stage of its own to the measured run.
pub fn run_prepared(prepared: &mut PreparedRun, run: &PerturbRun) -> PerturbResult {
    prepared.insert_all();
    let mean_replicas = prepared.mean_replicas();

    let flap_start = prepared.perturb(run);
    let before = prepared.engine.counters();
    let handles = prepared.lookups(run, flap_start);
    let tally = prepared.tally(&handles);
    let after = prepared.engine.counters();
    PerturbResult {
        success_rate: tally.success_rate,
        lookup_messages: after.lookup_messages - before.lookup_messages,
        total_messages: after.total_messages - before.total_messages,
        mean_reply_hops: tally.mean_reply_hops,
        mean_replicas,
    }
}

/// A bounded worker pool for fanning experiments out in parallel.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentRunner {
    workers: usize,
}

impl Default for ExperimentRunner {
    /// One worker per available core.
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ExperimentRunner { workers }
    }
}

impl ExperimentRunner {
    /// A runner with exactly `workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a runner needs at least one worker");
        ExperimentRunner { workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item on the worker pool, preserving input
    /// order in the output.
    ///
    /// Items are claimed from a shared atomic cursor, so long and short
    /// items interleave without static partitioning imbalance.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker.
    #[expect(
        clippy::expect_used,
        reason = "P001: a poisoned slot means a sibling worker already panicked, the scoped join re-raises that panic, and past it every index ran to completion"
    )]
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(items.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(&items[i]);
                    *slots[i].lock().expect("poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("poisoned").expect("all items run"))
            .collect()
    }

    /// Runs every scenario, in parallel, preserving input order.
    pub fn run_scenarios(&self, scenarios: &[Scenario]) -> Vec<PerturbResult> {
        self.map(scenarios, run_scenario)
    }

    /// Fans `base` out across `seeds` (each seed gets its own
    /// deterministic RNG stream derived only from that seed) and merges
    /// the per-seed results.
    pub fn run_seeds(&self, base: &Scenario, seeds: &[u64]) -> SeedSweep {
        let scenarios: Vec<Scenario> = seeds
            .iter()
            .map(|&seed| {
                let mut s = *base;
                s.run.seed = seed;
                s
            })
            .collect();
        let results = self.run_scenarios(&scenarios);
        SeedSweep::collect(base.label(), base.to_string(), seeds, results)
    }
}

/// Per-metric statistics across a seed sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeedStats {
    /// Success rate (%) across seeds.
    pub success_rate: RunningStats,
    /// Lookup-message transmissions across seeds.
    pub lookup_messages: RunningStats,
    /// Total transmissions across seeds.
    pub total_messages: RunningStats,
    /// Mean reply hops across seeds.
    pub mean_reply_hops: RunningStats,
    /// Mean replicas per object across seeds.
    pub mean_replicas: RunningStats,
}

/// The merged outcome of one scenario run across many seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSweep {
    /// The engine label ([`Scenario::label`]).
    pub label: String,
    /// The full scenario description (engine + sweep variables), so a
    /// sweep document is self-describing on its own.
    pub scenario: String,
    /// The seeds, in run order.
    pub seeds: Vec<u64>,
    /// Per-seed results, parallel to `seeds`.
    pub results: Vec<PerturbResult>,
    /// Cross-seed statistics, merged in seed order.
    pub stats: SeedStats,
}

impl SeedSweep {
    fn collect(
        label: String,
        scenario: String,
        seeds: &[u64],
        results: Vec<PerturbResult>,
    ) -> Self {
        // RunningStats::default() derives all-zero fields (min/max
        // included); empty accumulators must come from new(), whose
        // min/max are ±infinity.
        let mut stats = SeedStats {
            success_rate: RunningStats::new(),
            lookup_messages: RunningStats::new(),
            total_messages: RunningStats::new(),
            mean_reply_hops: RunningStats::new(),
            mean_replicas: RunningStats::new(),
        };
        for r in &results {
            stats.success_rate.push(r.success_rate);
            stats.lookup_messages.push(r.lookup_messages as f64);
            stats.total_messages.push(r.total_messages as f64);
            stats.mean_reply_hops.push(r.mean_reply_hops);
            stats.mean_replicas.push(r.mean_replicas);
        }
        SeedSweep {
            label,
            scenario,
            seeds: seeds.to_vec(),
            results,
            stats,
        }
    }

    /// Renders the sweep as a self-describing JSON document. It is
    /// hand-built because it is not the struct: it adds `seed_range`,
    /// prints each statistic's `mean`/`std_dev`/`min`/`max` where the
    /// struct holds an accumulator's internals, and fixes four decimals
    /// so sweep files diff cleanly. The header names the engine
    /// ([`Scenario::label`]),
    /// the full scenario (sweep variables included), and the seed
    /// range, so a sweep file needs no out-of-band context to read.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"engine\": \"{}\",\n", self.label));
        out.push_str(&format!("  \"scenario\": \"{}\",\n", self.scenario));
        out.push_str(&format!(
            "  \"seed_range\": {{\"first\": {}, \"last\": {}, \"count\": {}}},\n",
            self.seeds.first().copied().unwrap_or(0),
            self.seeds.last().copied().unwrap_or(0),
            self.seeds.len()
        ));
        out.push_str(&format!("  \"seeds\": {:?},\n", self.seeds));
        out.push_str("  \"per_seed\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"seed\": {}, \"success_rate\": {:.4}, \"lookup_messages\": {}, \
                 \"total_messages\": {}, \"mean_reply_hops\": {:.4}, \"mean_replicas\": {:.4}}}{comma}\n",
                self.seeds[i],
                r.success_rate,
                r.lookup_messages,
                r.total_messages,
                r.mean_reply_hops,
                r.mean_replicas,
            ));
        }
        out.push_str("  ],\n");
        let dist = |s: &RunningStats| {
            format!(
                "{{\"mean\": {:.4}, \"std_dev\": {:.4}, \"min\": {:.4}, \"max\": {:.4}}}",
                s.mean(),
                s.std_dev(),
                s.min(),
                s.max()
            )
        };
        out.push_str("  \"merged\": {\n");
        out.push_str(&format!(
            "    \"success_rate\": {},\n",
            dist(&self.stats.success_rate)
        ));
        out.push_str(&format!(
            "    \"lookup_messages\": {},\n",
            dist(&self.stats.lookup_messages)
        ));
        out.push_str(&format!(
            "    \"total_messages\": {},\n",
            dist(&self.stats.total_messages)
        ));
        out.push_str(&format!(
            "    \"mean_reply_hops\": {},\n",
            dist(&self.stats.mean_reply_hops)
        ));
        out.push_str(&format!(
            "    \"mean_replicas\": {}\n",
            dist(&self.stats.mean_replicas)
        ));
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EngineSpec, OverlaySource};

    fn mini(spec: EngineSpec, p: f64, seed: u64) -> Scenario {
        let mut run = PerturbRun::new(30, 30, p);
        run.nodes = 100;
        run.operations = 10;
        run.seed = seed;
        Scenario::new(spec, run)
    }

    #[test]
    fn map_preserves_order_and_runs_everything() {
        let runner = ExperimentRunner::new(3);
        let items: Vec<u64> = (0..17).collect();
        let out = runner.map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_on_empty_input_is_empty() {
        let runner = ExperimentRunner::new(2);
        let out: Vec<u64> = runner.map(&[] as &[u64], |&x: &u64| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_scenarios_match_sequential() {
        let pts = vec![
            mini(
                EngineSpec::MpilOver(OverlaySource::RandomRegular(8)),
                0.5,
                3,
            ),
            mini(EngineSpec::Chord, 0.5, 3),
        ];
        let par = ExperimentRunner::new(2).run_scenarios(&pts);
        let seq: Vec<_> = pts.iter().map(run_scenario).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn seed_sweep_merges_in_seed_order() {
        let base = mini(
            EngineSpec::MpilOver(OverlaySource::RandomRegular(8)),
            0.0,
            0,
        );
        let sweep = ExperimentRunner::new(2).run_seeds(&base, &[5, 6, 7]);
        assert_eq!(sweep.seeds, vec![5, 6, 7]);
        assert_eq!(sweep.results.len(), 3);
        assert_eq!(sweep.stats.success_rate.count(), 3);
        // Each per-seed result is the plain single-scenario run.
        let mut one = base;
        one.run.seed = 6;
        assert_eq!(sweep.results[1], run_scenario(&one));
        // min/max must come from actual samples, not the all-zero
        // RunningStats::default() (regression: min stuck at 0).
        let s = sweep.stats.success_rate;
        assert!(s.min().is_finite() && s.min() <= s.max());
        let expected_min = sweep
            .results
            .iter()
            .map(|r| r.success_rate)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(s.min(), expected_min);
        let json = sweep.to_json();
        assert!(json.contains("\"seeds\": [5, 6, 7]"));
        assert!(json.contains("\"merged\""));
        // The header is self-describing: engine label, full scenario,
        // and the seed range, with no out-of-band context needed.
        assert!(
            json.contains("\"engine\": \"MPIL over random d=8\""),
            "{json}"
        );
        assert!(
            json.contains("\"seed_range\": {\"first\": 5, \"last\": 7, \"count\": 3}"),
            "{json}"
        );
        assert!(sweep.scenario.contains("100 nodes"), "{}", sweep.scenario);
    }

    #[test]
    fn quiet_network_succeeds_through_the_unified_loop() {
        for spec in [EngineSpec::MSPASTRY, EngineSpec::MPIL_NO_DS] {
            let r = run_scenario(&mini(spec, 0.0, 9));
            assert!(
                r.success_rate >= 90.0,
                "{}: {}",
                spec.label(),
                r.success_rate
            );
        }
    }
}
