//! Static-overlay experiment runners (Section 6.1: Figures 9–10,
//! Tables 1–3).
//!
//! Independent overlays fan out across the
//! [`mpil_harness::ExperimentRunner`] worker pool; per-graph samples
//! are collected in graph order and merged sequentially, so the
//! parallel run is bit-identical to the historical sequential loop.

use mpil::{MpilConfig, StaticEngine};
use mpil_harness::ExperimentRunner;
use mpil_overlay::{generators, Topology};
use mpil_workload::{InsertLookupWorkload, RunningStats, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The two overlay families of Section 6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Inet-style power-law graphs ("0% of degree 1 nodes").
    PowerLaw,
    /// Random `d`-regular graphs (`d = 100` in the paper).
    Random {
        /// Node degree.
        degree: usize,
    },
}

impl Family {
    /// Human-readable label used in table rows.
    pub fn label(&self) -> &'static str {
        match self {
            Family::PowerLaw => "Power-Law",
            Family::Random { .. } => "Random",
        }
    }

    /// Generates one overlay of this family.
    ///
    /// # Panics
    ///
    /// Panics if generation fails (infeasible parameters).
    pub fn generate(&self, nodes: usize, rng: &mut SmallRng) -> Topology {
        match self {
            Family::PowerLaw => {
                generators::power_law(nodes, Default::default(), rng).expect("power-law generation")
            }
            Family::Random { degree } => {
                generators::random_regular(nodes, *degree, rng).expect("regular generation")
            }
        }
    }
}

/// The per-graph seed derivation (unchanged since the seed state; the
/// calibrated tests and the recorded baselines depend on it).
fn graph_seed(seed: u64, g: usize) -> u64 {
    seed ^ (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Aggregated insertion behavior over several graphs (Figure 9's three
/// panels).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InsertionBehavior {
    /// Mean replicas per insertion.
    pub mean_replicas: f64,
    /// Mean messages (traffic) per insertion.
    pub mean_traffic: f64,
    /// Total duplicate receptions across all insertions.
    pub total_duplicates: u64,
    /// Mean flows actually created per insertion.
    pub mean_flows: f64,
    /// Number of insertions aggregated.
    pub insertions: u64,
}

/// One graph's raw insertion samples, in insertion order.
struct InsertionSamples {
    /// Per-insertion (replicas, messages, flows) triples.
    per_insert: Vec<(f64, f64, f64)>,
    duplicates: u64,
}

/// Runs Figure 9's insertion workload: `graphs` overlays of `nodes`
/// nodes; `objects` insertions per overlay from random origins, with the
/// paper's insert parameters (`max_flows`, `num_replicas`).
pub fn insertion_behavior(
    family: Family,
    nodes: usize,
    graphs: usize,
    objects: usize,
    config: MpilConfig,
    seed: u64,
) -> InsertionBehavior {
    insertion_behavior_on(
        &ExperimentRunner::default(),
        family,
        nodes,
        graphs,
        objects,
        config,
        seed,
    )
}

/// [`insertion_behavior`] on an explicit runner (worker count must not
/// affect results — the conformance of that claim is tested).
pub fn insertion_behavior_on(
    runner: &ExperimentRunner,
    family: Family,
    nodes: usize,
    graphs: usize,
    objects: usize,
    config: MpilConfig,
    seed: u64,
) -> InsertionBehavior {
    let graph_indices: Vec<usize> = (0..graphs).collect();
    let per_graph = runner.map(&graph_indices, |&g| {
        let gseed = graph_seed(seed, g);
        let mut rng = SmallRng::seed_from_u64(gseed);
        let topo = family.generate(nodes, &mut rng);
        let workload = InsertLookupWorkload::generate(WorkloadConfig {
            objects,
            nodes,
            fixed_origin: None,
            seed: gseed ^ 0xabcd,
        });
        let mut engine = StaticEngine::new(&topo, config, gseed ^ 0x1234);
        let mut samples = InsertionSamples {
            per_insert: Vec::with_capacity(objects),
            duplicates: 0,
        };
        for (object, origin) in workload.inserts() {
            let r = engine.insert(origin, object);
            samples.per_insert.push((
                f64::from(r.replicas),
                r.messages as f64,
                f64::from(r.flows_created),
            ));
            samples.duplicates += r.duplicates;
        }
        samples
    });

    let mut replicas = RunningStats::new();
    let mut traffic = RunningStats::new();
    let mut flows = RunningStats::new();
    let mut duplicates = 0u64;
    for samples in &per_graph {
        for &(r, m, f) in &samples.per_insert {
            replicas.push(r);
            traffic.push(m);
            flows.push(f);
        }
        duplicates += samples.duplicates;
    }
    InsertionBehavior {
        mean_replicas: replicas.mean(),
        mean_traffic: traffic.mean(),
        total_duplicates: duplicates,
        mean_flows: flows.mean(),
        insertions: replicas.count(),
    }
}

/// Aggregated lookup behavior (Tables 1–3, Figure 10).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LookupBehavior {
    /// Fraction of lookups that found the object, in percent.
    pub success_rate: f64,
    /// Mean first-reply hop count over successful lookups.
    pub mean_hops: f64,
    /// Mean messages per lookup (whole lifetime).
    pub mean_traffic: f64,
    /// Mean messages until the first reply, over successful lookups.
    pub mean_traffic_to_first_reply: f64,
    /// Mean flows actually created per lookup (Table 3).
    pub mean_flows: f64,
    /// Number of lookups aggregated.
    pub lookups: u64,
}

/// One lookup's raw measurements: messages, flows, and — when it
/// succeeded — (first_reply_hops, messages_until_first_reply).
type LookupSample = (f64, f64, Option<(f64, f64)>);

/// One graph's raw lookup samples, in lookup order.
struct LookupSamples {
    per_lookup: Vec<LookupSample>,
}

/// Runs the Section 6.1 lookup methodology: for each of `graphs`
/// overlays, insert `objects` objects with `insert_config`, then look
/// each up from a fresh random origin with `lookup_config`.
pub fn lookup_behavior(
    family: Family,
    nodes: usize,
    graphs: usize,
    objects: usize,
    insert_config: MpilConfig,
    lookup_config: MpilConfig,
    seed: u64,
) -> LookupBehavior {
    lookup_behavior_on(
        &ExperimentRunner::default(),
        family,
        nodes,
        graphs,
        objects,
        insert_config,
        lookup_config,
        seed,
    )
}

/// [`lookup_behavior`] on an explicit runner (worker count must not
/// affect results — the conformance of that claim is tested).
#[expect(clippy::too_many_arguments, reason = "`lookup_behavior`'s arguments plus the runner")]
pub fn lookup_behavior_on(
    runner: &ExperimentRunner,
    family: Family,
    nodes: usize,
    graphs: usize,
    objects: usize,
    insert_config: MpilConfig,
    lookup_config: MpilConfig,
    seed: u64,
) -> LookupBehavior {
    let graph_indices: Vec<usize> = (0..graphs).collect();
    let per_graph = runner.map(&graph_indices, |&g| {
        let gseed = graph_seed(seed, g);
        let mut rng = SmallRng::seed_from_u64(gseed);
        let topo = family.generate(nodes, &mut rng);
        let workload = InsertLookupWorkload::generate(WorkloadConfig {
            objects,
            nodes,
            fixed_origin: None,
            seed: gseed ^ 0xabcd,
        });
        let mut engine = StaticEngine::new(&topo, insert_config, gseed ^ 0x1234);
        for (object, origin) in workload.inserts() {
            engine.insert(origin, object);
        }
        engine.set_config(lookup_config);
        let mut samples = LookupSamples {
            per_lookup: Vec::with_capacity(objects),
        };
        for (object, origin) in workload.lookups() {
            let r = engine.lookup(origin, object);
            let success = r.success.then(|| {
                (
                    f64::from(r.first_reply_hops.unwrap_or(0)),
                    r.messages_until_first_reply as f64,
                )
            });
            samples
                .per_lookup
                .push((r.messages as f64, f64::from(r.flows_created), success));
        }
        samples
    });

    let mut hops = RunningStats::new();
    let mut traffic = RunningStats::new();
    let mut first_traffic = RunningStats::new();
    let mut flows = RunningStats::new();
    let mut successes = 0u64;
    let mut total = 0u64;
    for samples in &per_graph {
        for &(messages, flow_count, success) in &samples.per_lookup {
            total += 1;
            traffic.push(messages);
            flows.push(flow_count);
            if let Some((h, first)) = success {
                successes += 1;
                hops.push(h);
                first_traffic.push(first);
            }
        }
    }
    LookupBehavior {
        success_rate: 100.0 * successes as f64 / total.max(1) as f64,
        mean_hops: hops.mean(),
        mean_traffic: traffic.mean(),
        mean_traffic_to_first_reply: first_traffic.mean(),
        mean_flows: flows.mean(),
        lookups: total,
    }
}

/// The paper's insertion parameters for Section 6.1 (`max_flows = 30`,
/// per-flow replicas = 5, DS on).
pub fn paper_insert_config() -> MpilConfig {
    MpilConfig::default()
        .with_max_flows(30)
        .with_num_replicas(5)
        .with_duplicate_suppression(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_labels_and_generation() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(Family::PowerLaw.label(), "Power-Law");
        assert_eq!(Family::Random { degree: 8 }.label(), "Random");
        let t = Family::Random { degree: 8 }.generate(100, &mut rng);
        assert_eq!(t.len(), 100);
        let p = Family::PowerLaw.generate(100, &mut rng);
        assert_eq!(p.len(), 100);
    }

    #[test]
    fn insertion_behavior_respects_bounds() {
        let cfg = paper_insert_config();
        let b = insertion_behavior(Family::Random { degree: 12 }, 200, 2, 20, cfg, 7);
        assert_eq!(b.insertions, 40);
        assert!(b.mean_replicas >= 1.0);
        assert!(b.mean_replicas <= 150.0, "bound max_flows*replicas");
        assert!(b.mean_traffic > 0.0);
        assert!(b.mean_flows <= 30.0);
    }

    #[test]
    fn lookup_success_improves_with_redundancy() {
        let ins = paper_insert_config();
        let weak = MpilConfig::default().with_max_flows(2).with_num_replicas(1);
        let strong = MpilConfig::default()
            .with_max_flows(15)
            .with_num_replicas(5);
        let lo = lookup_behavior(Family::PowerLaw, 300, 2, 30, ins, weak, 11);
        let hi = lookup_behavior(Family::PowerLaw, 300, 2, 30, ins, strong, 11);
        assert!(hi.success_rate >= lo.success_rate);
        assert!(hi.success_rate > 80.0, "strong config should mostly hit");
    }

    #[test]
    fn deterministic_runs() {
        let cfg = paper_insert_config();
        let a = insertion_behavior(Family::PowerLaw, 150, 2, 15, cfg, 3);
        let b = insertion_behavior(Family::PowerLaw, 150, 2, 15, cfg, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_graph_fanout_matches_sequential() {
        // The merge is ordered, so worker count cannot change results:
        // one worker (strictly sequential) vs more workers than graphs.
        let cfg = paper_insert_config();
        let lookup = MpilConfig::default().with_max_flows(8).with_num_replicas(3);
        let fam = Family::Random { degree: 10 };
        let seq = ExperimentRunner::new(1);
        let par = ExperimentRunner::new(4);
        let a = lookup_behavior_on(&seq, fam, 150, 3, 10, cfg, lookup, 9);
        let b = lookup_behavior_on(&par, fam, 150, 3, 10, cfg, lookup, 9);
        assert_eq!(a, b);
        let a = insertion_behavior_on(&seq, fam, 150, 3, 10, cfg, 9);
        let b = insertion_behavior_on(&par, fam, 150, 3, 10, cfg, 9);
        assert_eq!(a, b);
    }
}
