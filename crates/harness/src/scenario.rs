//! [`Scenario`]: the one experiment descriptor every driver speaks.
//!
//! A scenario names an engine ([`EngineSpec`]), an overlay size, a
//! workload (insert/lookup pairs from a designated origin), a flapping
//! perturbation schedule, and a master seed. [`Scenario::build`]
//! constructs the engine converged — reproducing, per engine, the exact
//! RNG draw order the original per-experiment runners used, so results
//! (and the calibrated test thresholds that depend on them) are
//! bit-identical to the pre-harness code.

use std::borrow::Borrow;
use std::fmt;

use mpil::{DynamicConfig, Mpil, MpilConfig};
use mpil_chord::{Chord, ChordConfig};
use mpil_gossip::{Epidemic, EpidemicConfig, LookupStrategy};
use mpil_id::Id;
use mpil_kademlia::{Kademlia, KademliaConfig};
use mpil_overlay::{generators, random_ids, transit_stub};
use mpil_overlay::{Adjacency, GenerateError, NodeIdx, Topology};
use mpil_pastry::{Pastry, PastryConfig};
use mpil_sim::{
    AlwaysOn, ConstantLatency, Flapping, FlappingConfig, LatencyModel, LookupOutcome, Protocol,
    Sim, SimDuration, SimTime, TransitStubLatency,
};
use mpil_workload::{Args, RunningStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::{DiscoveryEngine, LookupHandle};

/// A source of frozen neighbor graphs for MPIL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlaySource {
    /// Pastry leaf sets ∪ routing tables.
    Pastry,
    /// Chord successors ∪ fingers ∪ predecessor.
    Chord,
    /// Kademlia bucket contents.
    Kademlia,
    /// Random regular graph with the given degree.
    RandomRegular(usize),
    /// Inet-style power-law graph.
    PowerLaw,
    /// Converged HyParView active views (each node's symmetric active
    /// view frozen as its neighbor list), with the given active bound.
    HyParView {
        /// Active-view bound (the overlay's degree).
        active: usize,
    },
    /// The complete graph: every node a neighbor of every other.
    Complete,
}

impl OverlaySource {
    /// Every overlay family by its one name, as `mpilctl overlay|simulate
    /// --family` and the `mpil-<family>` systems ([`EngineSpec::systems`])
    /// read it.
    pub const NAMES: [(&'static str, OverlaySource); 7] = [
        ("pastry", OverlaySource::Pastry),
        ("chord", OverlaySource::Chord),
        ("kademlia", OverlaySource::Kademlia),
        ("regular", OverlaySource::RandomRegular(8)),
        ("powerlaw", OverlaySource::PowerLaw),
        ("hyparview", OverlaySource::HyParView { active: 8 }),
        ("complete", OverlaySource::Complete),
    ];

    /// The family [`OverlaySource::NAMES`] gives `name`.
    ///
    /// # Errors
    ///
    /// Lists the table's names if no row holds `name`.
    pub fn named(name: &str) -> Result<OverlaySource, String> {
        row_named(Self::NAMES.into_iter(), name, "overlay family")
    }

    /// The fewest nodes this family can be built on: a random-regular
    /// graph needs more nodes than its degree, a power-law one four
    /// (`generators::power_law`'s `TooFewNodes` minimum), a complete one
    /// two.
    pub fn fewest_nodes(&self) -> usize {
        match self {
            OverlaySource::RandomRegular(degree) => degree.saturating_add(1),
            OverlaySource::PowerLaw => 4,
            OverlaySource::Complete => 2,
            _ => 1,
        }
    }

    /// Label used in tables.
    pub fn label(&self) -> String {
        match self {
            OverlaySource::Pastry => "Pastry overlay".into(),
            OverlaySource::Chord => "Chord overlay".into(),
            OverlaySource::Kademlia => "Kademlia overlay".into(),
            OverlaySource::RandomRegular(d) => format!("random d={d}"),
            OverlaySource::PowerLaw => "power-law".into(),
            OverlaySource::HyParView { active } => format!("hyparview active={active}"),
            OverlaySource::Complete => "complete".into(),
        }
    }

    /// A generated family's undirected graph, as its generator draws it
    /// from `seed`; `None` for a structured overlay, whose directed
    /// pointer graph only [`OverlaySource::build`] makes.
    ///
    /// # Errors
    ///
    /// The generator's refusal of a size or a degree it cannot realise.
    pub fn generate(&self, nodes: usize, seed: u64) -> Option<Result<Topology, GenerateError>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Some(match self {
            OverlaySource::RandomRegular(d) => generators::random_regular(nodes, *d, &mut rng),
            OverlaySource::PowerLaw => generators::power_law(nodes, Default::default(), &mut rng),
            OverlaySource::Complete => generators::complete(nodes, &mut rng),
            _ => return None,
        })
    }

    /// Builds the frozen (ids, neighbor lists) pair: a generated graph's
    /// sorted lists as its generator filled them, a structured overlay's
    /// directed lists in their own order.
    ///
    /// # Panics
    ///
    /// Panics if a generator refuses `nodes` (fewer than
    /// [`OverlaySource::fewest_nodes`]).
    pub fn build(&self, nodes: usize, seed: u64) -> (Vec<Id>, Adjacency) {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            OverlaySource::Pastry => {
                let ids = random_ids(nodes, &mut rng);
                let states = mpil_pastry::build_converged_states(&ids, &mut rng);
                let nbrs: Vec<_> = states.iter().map(|s| s.neighbor_list()).collect();
                (ids, nbrs.into())
            }
            OverlaySource::Chord => {
                let ids = random_ids(nodes, &mut rng);
                let states = mpil_chord::build_converged_states(&ids);
                let nbrs: Vec<_> = states.iter().map(|s| s.neighbor_list()).collect();
                (ids, nbrs.into())
            }
            OverlaySource::Kademlia => {
                let config = KademliaConfig::default();
                let ids = random_ids(nodes, &mut rng);
                let tables = mpil_kademlia::build_converged_tables(&ids, &config);
                let nbrs: Vec<_> = tables.iter().map(|t| t.iter().collect()).collect();
                (ids, nbrs.into())
            }
            OverlaySource::RandomRegular(_) | OverlaySource::PowerLaw | OverlaySource::Complete => {
                #[expect(
                    clippy::expect_used,
                    reason = "P001: the generators' parameters are valid and every caller asks for the family's fewest nodes or more; the command lines refuse fewer by name (EngineSpec::read)"
                )]
                let topo = self
                    .generate(nodes, seed)
                    .and_then(Result::ok)
                    .expect("generator");
                topo.into_parts()
            }
            OverlaySource::HyParView { active } => {
                let ids = random_ids(nodes, &mut rng);
                let members = mpil_gossip::build_converged_membership(
                    nodes,
                    *active,
                    EpidemicConfig::default().passive_size,
                    &mut rng,
                );
                let nbrs: Vec<_> = members.iter().map(|m| m.active.peers()).collect();
                (ids, nbrs.into())
            }
        }
    }
}

/// Mean out-degree of a frozen neighbor graph (what
/// [`OverlaySource::build`] returns), for the degree columns of the
/// tables: its entries over its nodes.
pub fn mean_out_degree(neighbors: &Adjacency) -> f64 {
    if neighbors.is_empty() {
        return 0.0;
    }
    neighbors.entries() as f64 / neighbors.len() as f64
}

impl fmt::Display for OverlaySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One perturbation run's parameters (overlay size, workload, flapping
/// schedule, failure injection, master seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbRun {
    /// Overlay size (1000 in the paper).
    pub nodes: usize,
    /// Insert/lookup pairs (1000 in the paper).
    pub operations: usize,
    /// Idle (online) seconds per flapping period.
    pub idle_secs: u64,
    /// Offline seconds per flapping period.
    pub offline_secs: u64,
    /// Flapping probability.
    pub probability: f64,
    /// Cap on the per-lookup deadline in seconds (60 by default).
    pub deadline_cap_secs: u64,
    /// Independent per-message link-loss probability injected in stage 2
    /// (0 = lossless; Castro et al.'s dependability study sweeps this).
    pub loss_probability: f64,
    /// Master seed.
    pub seed: u64,
}

impl PerturbRun {
    /// A run with the paper's defaults for everything but the sweep
    /// variables.
    pub fn new(idle_secs: u64, offline_secs: u64, probability: f64) -> Self {
        PerturbRun {
            nodes: 1000,
            operations: 1000,
            idle_secs,
            offline_secs,
            probability,
            deadline_cap_secs: 60,
            loss_probability: 0.0,
            seed: 42,
        }
    }

    /// Sets the stage-2 link-loss probability.
    pub fn with_loss(mut self, loss_probability: f64) -> Self {
        self.loss_probability = loss_probability;
        self
    }

    /// One full flapping period (idle + offline).
    pub fn period(&self) -> SimDuration {
        SimDuration::from_secs(self.idle_secs + self.offline_secs)
    }

    /// The per-lookup deadline window: `min(period, cap)`.
    pub fn deadline_window(&self) -> SimDuration {
        SimDuration::from_secs((self.idle_secs + self.offline_secs).min(self.deadline_cap_secs))
    }
}

/// Which engine a scenario runs, with its engine-specific knobs.
///
/// Each variant reproduces one of the original experiment methodologies
/// exactly, including its latency model and RNG stream layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineSpec {
    /// MSPastry with full maintenance over transit-stub latencies
    /// (Figures 1 and 11), optionally with Replication on Route.
    Pastry {
        /// Leave replicas along the insert route (the "RR" variant).
        replication_on_route: bool,
    },
    /// Chord with stabilize/fix-fingers/check-predecessor, constant
    /// latency (the `ext_dht_comparison` baseline).
    Chord,
    /// Kademlia with the given `(k, alpha)`, constant latency.
    Kademlia {
        /// Bucket size / replication factor.
        k: usize,
        /// Lookup parallelism.
        alpha: usize,
    },
    /// MPIL over the frozen Pastry overlay with transit-stub latencies
    /// and zero maintenance — "MPIL with/without DS" in Figures 11–12.
    MpilOverPastry {
        /// Duplicate suppression on/off.
        duplicate_suppression: bool,
    },
    /// MPIL (no maintenance, no DS) over the frozen neighbor graph of
    /// any overlay family, constant latency (the overlay-independence
    /// extensions).
    MpilOver(OverlaySource),
    /// The epidemic engine: HyParView membership with Plumtree
    /// tree-query, FOAF-walk, k-random-walk or expanding-ring lookups,
    /// constant latency.
    Epidemic {
        /// Active-view bound (symmetric protocol links).
        active: usize,
        /// Passive-view bound (reactive-replacement reservoir).
        passive: usize,
        /// How lookups spread.
        strategy: LookupStrategy,
    },
}

impl EngineSpec {
    /// "MSPastry" in Figures 1, 11 and 12.
    pub const MSPASTRY: EngineSpec = EngineSpec::Pastry {
        replication_on_route: false,
    };
    /// "MSPastry with RR" in Figure 11.
    pub const MSPASTRY_RR: EngineSpec = EngineSpec::Pastry {
        replication_on_route: true,
    };
    /// "MPIL with DS" in Figures 11 and 12.
    pub const MPIL_DS: EngineSpec = EngineSpec::MpilOverPastry {
        duplicate_suppression: true,
    };
    /// "MPIL without DS" in Figures 11 and 12.
    pub const MPIL_NO_DS: EngineSpec = EngineSpec::MpilOverPastry {
        duplicate_suppression: false,
    };
    /// HyParView membership (active 5, passive 24) under Plumtree
    /// tree-query lookups: the epidemic engine as every driver runs it.
    pub const PLUMTREE: EngineSpec = EngineSpec::Epidemic {
        active: 5,
        passive: 24,
        strategy: LookupStrategy::Plumtree,
    };
    /// The same membership with bounded-fanout FOAF-walk lookups.
    pub const FOAF: EngineSpec = EngineSpec::Epidemic {
        active: 5,
        passive: 24,
        strategy: LookupStrategy::Foaf,
    };
    /// Stock Kademlia (`k = 8, α = 3`).
    pub const KADEMLIA: EngineSpec = EngineSpec::Kademlia { k: 8, alpha: 3 };
    /// HyParView membership (active 8, passive 24) searched by k random
    /// walks over pointers that insert walks left (8 walkers, ttl 16).
    pub const GOSSIP_WALK: EngineSpec = EngineSpec::Epidemic {
        active: 8,
        passive: 24,
        strategy: LookupStrategy::KRandomWalk,
    };
    /// The same membership and inserts searched by expanding rings (ttl
    /// 1, 2, 4, 8): the flood the figure drivers and `mpilctl` compare
    /// the Plumtree and FOAF lookups with.
    pub const GOSSIP_RING: EngineSpec = EngineSpec::Epidemic {
        active: 8,
        passive: 24,
        strategy: LookupStrategy::ExpandingRing,
    };
    /// The four systems Figure 11 compares, in the paper's legend order.
    pub const FIGURE_11: [EngineSpec; 4] = [
        EngineSpec::MSPASTRY,
        EngineSpec::MSPASTRY_RR,
        EngineSpec::MPIL_DS,
        EngineSpec::MPIL_NO_DS,
    ];

    /// Every system but MPIL over a frozen overlay, by its one name.
    /// `mpil` and `mpil-ds` are Figures 11–12's MPIL, over MSPastry's
    /// graph at transit-stub latencies.
    pub const NAMES: [(&'static str, EngineSpec); 11] = [
        ("pastry", EngineSpec::MSPASTRY),
        ("pastry-rr", EngineSpec::MSPASTRY_RR),
        ("chord", EngineSpec::Chord),
        ("kademlia", EngineSpec::KADEMLIA),
        ("kademlia-1", EngineSpec::Kademlia { k: 1, alpha: 1 }),
        ("plumtree", EngineSpec::PLUMTREE),
        ("foaf", EngineSpec::FOAF),
        ("gossip", EngineSpec::GOSSIP_WALK),
        ("gossip-ring", EngineSpec::GOSSIP_RING),
        ("mpil", EngineSpec::MPIL_NO_DS),
        ("mpil-ds", EngineSpec::MPIL_DS),
    ];

    /// Every system by its one name, as `scale_run --engine` and
    /// `mpilctl perturb|sweep --system` read it: [`EngineSpec::NAMES`],
    /// then `mpil-<family>` for MPIL over each of
    /// [`OverlaySource::NAMES`] at LAN latency.
    pub fn systems() -> impl Iterator<Item = (String, EngineSpec)> {
        let own = Self::NAMES
            .iter()
            .map(|&(name, spec)| (name.to_string(), spec));
        let over = OverlaySource::NAMES
            .iter()
            .map(|&(name, source)| (format!("mpil-{name}"), EngineSpec::MpilOver(source)));
        own.chain(over)
    }

    /// The system [`EngineSpec::systems`] gives `name`.
    ///
    /// # Errors
    ///
    /// Lists the systems' names if none is `name`.
    pub fn named(name: &str) -> Result<EngineSpec, String> {
        row_named(Self::systems(), name, "system")
    }

    /// Reads a system and its size from a command line: its name from
    /// `--{flag}` (`default` when absent), its size from `--nodes`
    /// (`nodes` when absent), refused below
    /// [`EngineSpec::fewest_nodes`] so that no build panics.
    ///
    /// # Errors
    ///
    /// Names the flag whose value names no system, or a `--nodes` that
    /// does not parse or is too few.
    pub fn read(
        args: &Args,
        flag: &str,
        default: &str,
        nodes: usize,
    ) -> Result<(EngineSpec, usize), String> {
        let name = args.value(flag).unwrap_or(default);
        let spec = EngineSpec::named(name).map_err(|why| format!("--{flag} {why}"))?;
        let nodes = args
            .try_value_in("nodes", spec.fewest_nodes()..)?
            .unwrap_or(nodes);
        Ok((spec, nodes))
    }

    /// The fewest nodes this system can be built on: its frozen
    /// overlay's ([`OverlaySource::fewest_nodes`]), else one.
    pub fn fewest_nodes(&self) -> usize {
        match self {
            EngineSpec::MpilOver(source) => source.fewest_nodes(),
            _ => 1,
        }
    }

    /// The system label used in figure legends and table rows.
    pub fn label(&self) -> String {
        match self {
            EngineSpec::Pastry {
                replication_on_route: false,
            } => "MSPastry".into(),
            EngineSpec::Pastry {
                replication_on_route: true,
            } => "MSPastry with RR".into(),
            EngineSpec::Chord => "Chord".into(),
            EngineSpec::Kademlia { k, alpha } => format!("Kademlia k={k} α={alpha}"),
            EngineSpec::MpilOverPastry {
                duplicate_suppression: true,
            } => "MPIL with DS".into(),
            EngineSpec::MpilOverPastry {
                duplicate_suppression: false,
            } => "MPIL without DS".into(),
            EngineSpec::MpilOver(src) => format!("MPIL over {}", src.label()),
            EngineSpec::Epidemic {
                active,
                passive,
                strategy,
            } => {
                let search = match strategy {
                    LookupStrategy::Plumtree => "Plumtree",
                    LookupStrategy::Foaf => "FOAF",
                    LookupStrategy::KRandomWalk => "Gossip k-walk",
                    LookupStrategy::ExpandingRing => "Gossip ring",
                };
                format!("{search} active={active} passive={passive}")
            }
        }
    }
}

/// The value of the row of a name table that `name` names, or a refusal
/// that lists every row's name.
fn row_named<S: Borrow<str>, T>(
    rows: impl Iterator<Item = (S, T)>,
    name: &str,
    kind: &str,
) -> Result<T, String> {
    let mut names = Vec::new();
    for (row, value) in rows {
        if row.borrow() == name {
            return Ok(value);
        }
        names.push(row);
    }
    let names = names.join("|");
    Err(format!("{name:?} names no {kind} (want {names})"))
}

impl fmt::Display for EngineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A fully-specified experiment: an engine plus run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Which engine (and engine knobs) to run.
    pub engine: EngineSpec,
    /// Overlay size, workload, perturbation schedule, seed.
    pub run: PerturbRun,
}

impl Scenario {
    /// Pairs an engine with run parameters.
    pub fn new(engine: EngineSpec, run: PerturbRun) -> Self {
        Scenario { engine, run }
    }

    /// The single label all drivers and table emitters use: the engine
    /// label (scenario rows vary the engine; sweep variables go in
    /// column headers).
    pub fn label(&self) -> String {
        self.engine.label()
    }

    /// Builds the engine converged and ready for stage 1, with the
    /// workload objects drawn and the RNG parked exactly where the
    /// perturbation stage expects it.
    pub fn build(&self) -> PreparedRun {
        let run = self.run;
        let mut rng = SmallRng::seed_from_u64(run.seed);
        let lan = || Box::new(ConstantLatency(SimDuration::from_millis(20)));
        // (engine, maintenance, warm-up seconds); every arm draws from
        // `rng` in its original order and leaves it for the objects.
        let (engine, maintenance, warmup_secs) = match self.engine {
            EngineSpec::Pastry {
                replication_on_route,
            } => {
                let config =
                    PastryConfig::default().with_replication_on_route(replication_on_route);
                let ids = random_ids(run.nodes, &mut rng);
                let states = mpil_pastry::build_converged_states(&ids, &mut rng);
                let wan = transit_stub_latency(run.nodes, &mut rng);
                (
                    quiet::<Pastry>((ids, states), config, wan, run.seed),
                    true,
                    90,
                )
            }
            EngineSpec::Chord => {
                let config = ChordConfig::default();
                let ids = random_ids(run.nodes, &mut rng);
                let states = mpil_chord::build_converged_states(&ids);
                (
                    quiet::<Chord>((ids, states), config, lan(), run.seed),
                    true,
                    0,
                )
            }
            EngineSpec::Kademlia { k, alpha } => {
                let config = KademliaConfig::default().with_k(k).with_alpha(alpha);
                let ids = random_ids(run.nodes, &mut rng);
                let tables = mpil_kademlia::build_converged_tables(&ids, &config);
                (
                    quiet::<Kademlia>((ids, tables), config, lan(), run.seed),
                    true,
                    0,
                )
            }
            EngineSpec::MpilOverPastry {
                duplicate_suppression,
            } => {
                // Build the same structured overlay MSPastry would have...
                let ids = random_ids(run.nodes, &mut rng);
                let states = mpil_pastry::build_converged_states(&ids, &mut rng);
                let neighbors: Vec<_> = states.iter().map(|s| s.neighbor_list()).collect();
                let wan = transit_stub_latency(run.nodes, &mut rng);
                // ...then route on it with MPIL and zero maintenance.
                let config = unmaintained_mpil(duplicate_suppression);
                (
                    quiet::<Mpil>((ids, neighbors.into()), config, wan, run.seed),
                    false,
                    0,
                )
            }
            EngineSpec::MpilOver(source) => {
                let frozen = source.build(run.nodes, run.seed);
                rng = SmallRng::seed_from_u64(run.seed ^ 0xdada);
                let config = unmaintained_mpil(false);
                (quiet::<Mpil>(frozen, config, lan(), run.seed), false, 0)
            }
            EngineSpec::Epidemic {
                active,
                passive,
                strategy,
            } => {
                let config = EpidemicConfig::default()
                    .with_views(active, passive)
                    .with_strategy(strategy);
                let members =
                    mpil_gossip::build_converged_membership(run.nodes, active, passive, &mut rng);
                (quiet::<Epidemic>(members, config, lan(), run.seed), true, 0)
            }
        };
        PreparedRun {
            engine,
            origin: NodeIdx::new(0),
            objects: (0..run.operations).map(|_| Id::random(&mut rng)).collect(),
            rng,
            maintenance,
            warmup_secs,
        }
    }
}

/// The engine of a scenario before stage 2: every node online, the
/// kernel on the scenario's derived seed.
fn quiet<P: Protocol + 'static>(
    parts: P::Parts,
    config: P::Config,
    latency: Box<dyn LatencyModel>,
    seed: u64,
) -> Box<dyn DiscoveryEngine> {
    Box::new(Sim::<P>::new(
        parts,
        config,
        Box::new(AlwaysOn),
        latency,
        seed ^ 0x5151,
    ))
}

/// Shortest-path latencies over a fresh GT-ITM-style transit-stub
/// hierarchy (the Figure 1/11/12 network).
fn transit_stub_latency(nodes: usize, rng: &mut SmallRng) -> Box<dyn LatencyModel> {
    #[expect(
        clippy::expect_used,
        reason = "P001: the fixed transit-stub hierarchy always produces a graph"
    )]
    let ts = transit_stub::generate(nodes, rng).expect("transit-stub generation");
    Box::new(TransitStubLatency::new(ts, 0.1))
}

/// MPIL as the perturbation experiments run it: ten flows, five
/// replicas, no heartbeats.
fn unmaintained_mpil(duplicate_suppression: bool) -> DynamicConfig {
    DynamicConfig {
        mpil: MpilConfig::default()
            .with_max_flows(10)
            .with_num_replicas(5)
            .with_duplicate_suppression(duplicate_suppression),
        heartbeat_period: None,
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.run;
        write!(
            f,
            "{} ({} nodes, {} ops, idle:offline={}:{}, p={}, loss={}, seed={})",
            self.engine.label(),
            r.nodes,
            r.operations,
            r.idle_secs,
            r.offline_secs,
            r.probability,
            r.loss_probability,
            r.seed
        )
    }
}

/// A converged engine plus everything stage 2 needs, in exact legacy
/// RNG order — and the paper's two-stage methodology (Sections 3 and
/// 6.2) as the one sequence of calls every driver makes on it:
///
/// ```text
/// insert_all → perturb → lookups → tally
/// ```
///
/// Each stage is its own call so that a driver can read a clock,
/// [`DiscoveryEngine::net_stats`], [`DiscoveryEngine::counters`] or an
/// allocation snapshot between two of them, and append stages of its
/// own (a recovery stage, say) after the last; what a driver may not do
/// is re-perform a stage by hand.
pub struct PreparedRun {
    /// The engine, converged and quiet.
    pub engine: Box<dyn DiscoveryEngine>,
    /// The designated measurement origin (exempt from flapping).
    pub origin: NodeIdx,
    /// The workload objects, already drawn.
    pub objects: Vec<Id>,
    /// The scenario RNG, parked where the flapping model expects it.
    pub rng: SmallRng,
    /// Whether to turn on overlay maintenance before perturbing.
    pub maintenance: bool,
    /// Seconds to run between starting maintenance and perturbing.
    pub warmup_secs: u64,
}

/// What a batch of lookups came to ([`PreparedRun::tally`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupTally {
    /// Percentage answered positively before their deadline.
    pub success_rate: f64,
    /// Mean forward-path hops of the successful replies.
    pub mean_reply_hops: f64,
}

impl PreparedRun {
    /// Stage 1: inserts every object from the origin on the quiet
    /// network and lets the insertions settle.
    pub fn insert_all(&mut self) {
        for &object in &self.objects {
            self.engine.insert(self.origin, object);
        }
        self.engine.run_to_quiescence();
    }

    /// Mean replicas per object (meaningful after [`insert_all`]).
    ///
    /// [`insert_all`]: PreparedRun::insert_all
    pub fn mean_replicas(&self) -> f64 {
        let mut replicas = RunningStats::new();
        for &object in &self.objects {
            replicas.push(self.engine.replica_count(object) as f64);
        }
        replicas.mean()
    }

    /// Stage-2 set-up: starts maintenance where the engine has any,
    /// runs the warm-up, then flaps every node but the origin on
    /// `run`'s schedule and injects its link loss. Returns the instant
    /// the flapping starts, which [`lookups`] counts its periods from.
    ///
    /// [`lookups`]: PreparedRun::lookups
    pub fn perturb(&mut self, run: &PerturbRun) -> SimTime {
        if self.maintenance {
            self.engine.start_maintenance();
        }
        if self.warmup_secs > 0 {
            self.engine
                .advance(SimDuration::from_secs(self.warmup_secs));
        }
        let flap_start = self.engine.now();
        let schedule =
            FlappingConfig::idle_offline_secs(run.idle_secs, run.offline_secs, run.probability)
                .starting_at(flap_start);
        let mut flap = Flapping::new(schedule, run.nodes, run.seed ^ 0xf1a9, &mut self.rng);
        flap.exempt(self.origin);
        self.engine.set_availability(Box::new(flap));
        self.engine.set_loss_probability(run.loss_probability);
        flap_start
    }

    /// The lookup loop: one lookup per flapping period counted from
    /// `flap_start`, each due [`PerturbRun::deadline_window`] after it
    /// is issued, then a tail long enough for the last to resolve.
    pub fn lookups(&mut self, run: &PerturbRun, flap_start: SimTime) -> Vec<LookupHandle> {
        let period = run.period();
        let window = run.deadline_window();
        let mut handles = Vec::with_capacity(self.objects.len());
        for (i, &object) in self.objects.iter().enumerate() {
            let issue_at = flap_start + period * (i as u64 + 1);
            self.engine.run_until(issue_at);
            let handle = self
                .engine
                .issue_lookup(self.origin, object, issue_at + window);
            handles.push(handle);
        }
        let tail = self.engine.now() + window + SimDuration::from_secs(30);
        self.engine.run_until(tail);
        handles
    }

    /// Reads the outcomes of `handles` (whose deadlines have passed).
    pub fn tally(&self, handles: &[LookupHandle]) -> LookupTally {
        // One sample per successful lookup.
        let mut hops = RunningStats::new();
        for &handle in handles {
            if let LookupOutcome::Succeeded { hops: h, .. } = self.engine.lookup_outcome(handle) {
                hops.push(f64::from(h));
            }
        }
        LookupTally {
            success_rate: 100.0 * hops.count() as f64 / handles.len().max(1) as f64,
            mean_reply_hops: hops.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_legacy_legend() {
        assert_eq!(EngineSpec::MSPASTRY.label(), "MSPastry");
        assert_eq!(EngineSpec::MSPASTRY_RR.label(), "MSPastry with RR");
        assert_eq!(EngineSpec::MPIL_DS.label(), "MPIL with DS");
        assert_eq!(EngineSpec::MPIL_NO_DS.label(), "MPIL without DS");
        assert_eq!(EngineSpec::KADEMLIA.label(), "Kademlia k=8 α=3");
        assert_eq!(
            EngineSpec::MpilOver(OverlaySource::Chord).label(),
            "MPIL over Chord overlay"
        );
        assert_eq!(
            EngineSpec::GOSSIP_WALK.label(),
            "Gossip k-walk active=8 passive=24"
        );
        assert_eq!(
            EngineSpec::GOSSIP_RING.label(),
            "Gossip ring active=8 passive=24"
        );
        assert_eq!(EngineSpec::PLUMTREE.label(), "Plumtree active=5 passive=24");
        assert_eq!(EngineSpec::FOAF.label(), "FOAF active=5 passive=24");
        assert_eq!(
            EngineSpec::MpilOver(OverlaySource::HyParView { active: 5 }).label(),
            "MPIL over hyparview active=5"
        );
        assert_eq!(
            EngineSpec::MpilOver(OverlaySource::Complete).label(),
            "MPIL over complete"
        );
    }

    #[test]
    fn scenario_display_names_the_sweep_variables() {
        let s = Scenario::new(EngineSpec::Chord, PerturbRun::new(30, 30, 0.5));
        let text = s.to_string();
        assert!(text.contains("Chord"));
        assert!(text.contains("idle:offline=30:30"));
        assert!(text.contains("p=0.5"));
    }

    #[test]
    fn build_prepares_each_engine_kind() {
        let mut run = PerturbRun::new(30, 30, 0.0);
        run.nodes = 60;
        run.operations = 3;
        for spec in [
            EngineSpec::MSPASTRY,
            EngineSpec::Chord,
            EngineSpec::Kademlia { k: 4, alpha: 2 },
            EngineSpec::MPIL_NO_DS,
            EngineSpec::MpilOver(OverlaySource::RandomRegular(8)),
            EngineSpec::GOSSIP_WALK,
            EngineSpec::GOSSIP_RING,
            EngineSpec::PLUMTREE,
            EngineSpec::FOAF,
            EngineSpec::MpilOver(OverlaySource::HyParView { active: 5 }),
        ] {
            let prepared = Scenario::new(spec, run).build();
            assert_eq!(prepared.engine.len(), 60, "{}", spec.label());
            assert_eq!(prepared.objects.len(), 3, "{}", spec.label());
            assert_eq!(prepared.origin, NodeIdx::new(0));
        }
    }

    #[test]
    fn a_power_law_overlay_builds_at_its_fewest_nodes() {
        let spec = EngineSpec::MpilOver(OverlaySource::PowerLaw);
        assert_eq!(spec.fewest_nodes(), 4);
        let mut run = PerturbRun::new(30, 30, 0.0);
        run.nodes = 4;
        run.operations = 1;
        assert_eq!(Scenario::new(spec, run).build().engine.len(), 4);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(
            generators::power_law(3, Default::default(), &mut rng).is_err(),
            "one node fewer is what the floor refuses"
        );
    }

    /// The name [`EngineSpec::systems`] gives `spec`, if any.
    fn system_name(spec: &EngineSpec) -> Option<String> {
        EngineSpec::systems()
            .find(|(_, row)| row == spec)
            .map(|(name, _)| name)
    }

    #[test]
    fn every_name_reads_back_its_one_value() {
        let systems: Vec<(String, EngineSpec)> = EngineSpec::systems().collect();
        for (i, (name, spec)) in systems.iter().enumerate() {
            assert_eq!(EngineSpec::named(name), Ok(*spec), "{name}");
            assert_eq!(system_name(spec).as_deref(), Some(name.as_str()));
            for (other, other_spec) in &systems[i + 1..] {
                assert_ne!(name, other, "one name, two systems");
                assert_ne!(
                    spec, other_spec,
                    "{name} and {other}: one system, two names"
                );
            }
        }
        for (i, &(name, source)) in OverlaySource::NAMES.iter().enumerate() {
            assert_eq!(OverlaySource::named(name), Ok(source), "{name}");
            let spec = EngineSpec::MpilOver(source);
            assert_eq!(system_name(&spec), Some(format!("mpil-{name}")));
            for &(other, other_source) in &OverlaySource::NAMES[i + 1..] {
                assert_ne!(name, other, "one name, two families");
                assert_ne!(
                    source, other_source,
                    "{name} and {other}: one family, two names"
                );
            }
        }
    }

    #[test]
    fn a_refusal_lists_the_table() {
        let why = EngineSpec::named("mpil-random").expect_err("a retired name");
        let names: Vec<String> = EngineSpec::systems().map(|(name, _)| name).collect();
        assert_eq!(
            why,
            format!("\"mpil-random\" names no system (want {})", names.join("|"))
        );
        let why = OverlaySource::named("random").expect_err("a retired name");
        assert!(
            why.ends_with("(want pastry|chord|kademlia|regular|powerlaw|hyparview|complete)"),
            "{why}"
        );
    }

    /// The systems the figure drivers and `mpilctl` compare each have a
    /// name, so a command line can run any point of a figure.
    #[test]
    fn every_driver_system_has_a_name() {
        for spec in EngineSpec::FIGURE_11.into_iter().chain([
            EngineSpec::Chord,
            EngineSpec::KADEMLIA,
            EngineSpec::Kademlia { k: 1, alpha: 1 },
            EngineSpec::PLUMTREE,
            EngineSpec::FOAF,
            EngineSpec::GOSSIP_WALK,
            EngineSpec::GOSSIP_RING,
            EngineSpec::MpilOver(OverlaySource::Pastry),
            EngineSpec::MpilOver(OverlaySource::Chord),
            EngineSpec::MpilOver(OverlaySource::Kademlia),
            EngineSpec::MpilOver(OverlaySource::RandomRegular(8)),
            EngineSpec::MpilOver(OverlaySource::PowerLaw),
            EngineSpec::MpilOver(OverlaySource::HyParView { active: 8 }),
        ]) {
            assert!(system_name(&spec).is_some(), "{} has no name", spec.label());
        }
    }

    #[test]
    fn every_system_runs_at_its_fewest_nodes() {
        for (name, spec) in EngineSpec::systems() {
            let mut run = PerturbRun::new(30, 30, 0.5);
            run.nodes = spec.fewest_nodes();
            run.operations = 1;
            let result = crate::run_scenario(&Scenario::new(spec, run));
            assert!(result.success_rate >= 0.0, "{name}");
        }
        assert_eq!(
            EngineSpec::MpilOver(OverlaySource::Complete).fewest_nodes(),
            2
        );
    }

    #[test]
    fn a_command_line_below_the_fewest_nodes_is_refused() {
        let args = |line: &str| Args::parse(line.split(' ').map(String::from));
        for (line, named) in [
            ("--system mpil-regular --nodes 8", "--nodes \"8\""),
            ("--system mpil-powerlaw --nodes 3", "--nodes \"3\""),
            ("--system mpil-complete --nodes 1", "--nodes \"1\""),
            ("--system pastry --nodes 0", "--nodes \"0\""),
            (
                "--system gossip-walk",
                "--system \"gossip-walk\" names no system",
            ),
        ] {
            let why = EngineSpec::read(&args(line), "system", "mpil", 300).expect_err(line);
            assert!(why.contains(named), "{line}: {why}");
        }
        let read = EngineSpec::read(
            &args("--system mpil-regular --nodes 9"),
            "system",
            "mpil",
            300,
        );
        assert_eq!(
            read,
            Ok((EngineSpec::MpilOver(OverlaySource::RandomRegular(8)), 9))
        );
        assert_eq!(
            EngineSpec::read(&args("--seed 1"), "system", "mpil", 300),
            Ok((EngineSpec::MPIL_NO_DS, 300))
        );
    }

    #[test]
    fn deadline_window_is_capped() {
        let run = PerturbRun::new(300, 300, 0.5);
        assert_eq!(run.period(), SimDuration::from_secs(600));
        assert_eq!(run.deadline_window(), SimDuration::from_secs(60));
        let short = PerturbRun::new(1, 1, 0.5);
        assert_eq!(short.deadline_window(), SimDuration::from_secs(2));
    }
}
