//! One drive loop, many engines, many seeds.
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
//! [`fan_out`] maps independent work items — scenario points, seeds or
//! graphs — over `std::thread::scope` threads, one per core. Each item's
//! RNG streams derive only from its own scenario seed and results are
//! collected in input order, so a parallel run is bit-identical to a
//! sequential one.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Applies `f` to every item on scoped worker threads and returns the
/// results in input order.
///
/// One worker runs per core, but at least two whenever there are two
/// items or more, so the concurrent path is the one every caller and
/// every test takes, on any host; never more workers than items. Items
/// are claimed from a shared cursor, so long and short items interleave
/// without static partitioning. An item's result may depend only on the
/// item (each scenario derives its RNG streams from its own seed), so
/// the output equals `items.iter().map(f)`.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn fan_out<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = cores.max(2).min(items.len());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, O)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        // `Relaxed`: the cursor only hands out indices;
                        // results reach the caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return claimed;
                        };
                        claimed.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Fans `base` out across `seeds` (each seed gets its own deterministic
/// RNG stream derived only from that seed) and merges the per-seed
/// results.
pub fn run_seeds(base: &Scenario, seeds: &[u64]) -> SeedSweep {
    let scenarios: Vec<Scenario> = seeds
        .iter()
        .map(|&seed| {
            let mut s = *base;
            s.run.seed = seed;
            s
        })
        .collect();
    let results = fan_out(&scenarios, run_scenario);
    SeedSweep::collect(base.label(), base.to_string(), seeds, results)
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
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    fn mini(spec: EngineSpec, p: f64, seed: u64) -> Scenario {
        let mut run = PerturbRun::new(30, 30, p);
        run.nodes = 100;
        run.operations = 10;
        run.seed = seed;
        Scenario::new(spec, run)
    }

    /// The first two items each wait (up to 10 s) until both have
    /// started, so they can only finish on two different threads; a
    /// single worker would run them one after the other on one.
    #[test]
    fn fan_out_matches_map_on_at_least_two_workers() {
        let started = (Mutex::new(0usize), Condvar::new());
        let square = |&x: &u64| {
            if x < 2 {
                let (count, arrival) = &started;
                let mut count = count.lock().expect("lock");
                *count += 1;
                arrival.notify_all();
                let wait = Duration::from_secs(10);
                drop(arrival.wait_timeout_while(count, wait, |n| *n < 2));
            }
            (x * x, std::thread::current().id())
        };
        let items: Vec<u64> = (0..17).collect();
        let out = fan_out(&items, square);
        let squares: Vec<u64> = out.iter().map(|&(sq, _)| sq).collect();
        assert_eq!(squares, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        let first = out[0].1;
        assert!(out.iter().any(|&(_, t)| t != first), "one thread ran all");
    }

    #[test]
    fn fan_out_on_empty_input_is_empty() {
        let out: Vec<u64> = fan_out(&[] as &[u64], |&x: &u64| x);
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
        let par = fan_out(&pts, run_scenario);
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
        let sweep = run_seeds(&base, &[5, 6, 7]);
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
