//! # mpil-suite
//!
//! Umbrella crate for the MPIL reproduction workspace. It re-exports every
//! member crate so that the root-level integration tests (`tests/`) and
//! examples (`examples/`) can exercise the whole system through one import.
//!
//! The actual functionality lives in the member crates:
//!
//! * [`mpil`] — the Multi-Path Insertion/Lookup algorithm (the paper's
//!   contribution).
//! * [`mpil_id`] — 160-bit identifier space and routing metrics.
//! * [`mpil_overlay`] — overlay graphs and generators (random, power-law,
//!   complete, transit-stub).
//! * [`mpil_sim`] — deterministic discrete-event simulation kernel, the
//!   flapping perturbation model, and link-loss injection.
//! * [`mpil_pastry`] — the Pastry/MSPastry baseline DHT with overlay
//!   maintenance.
//! * [`mpil_chord`] — the Chord baseline DHT (successor lists, fingers,
//!   stabilization).
//! * [`mpil_kademlia`] — the Kademlia baseline DHT (k-buckets, iterative
//!   α-parallel lookups).
//! * [`mpil_gossip`] — the epidemic/unstructured engine (gossip partial
//!   views with suspicion; k-random-walk and expanding-ring lookups).
//! * [`mpil_net`] — the live shard-per-core runtime (wire codec,
//!   channel/UDP transports, perturbable clusters).
//! * [`mpil_analysis`] — closed-form analysis from Section 5 of the paper.
//! * [`mpil_workload`] — workload generators, experiment harness, statistics.
//! * [`mpil_harness`] — the `DiscoveryEngine` trait (one impl, for `Sim<P>`),
//!   `Scenario` descriptors, and the parallel multi-seed `ExperimentRunner`.
//!
//! Insert from one node, look up from another, on an arbitrary overlay:
//!
//! ```
//! use mpil_suite::mpil::{MpilConfig, StaticEngine};
//! use mpil_suite::mpil_id::Id;
//! use mpil_suite::mpil_overlay::{generators, NodeIdx};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let topo = generators::random_regular(48, 6, &mut rng)?;
//! let mut engine = StaticEngine::new(&topo, MpilConfig::default(), 7);
//!
//! let object = Id::from_low_u64(0xcafe);
//! let ins = engine.insert(NodeIdx::new(0), object);
//! assert!(ins.replicas >= 1);
//! assert!(engine.lookup(NodeIdx::new(17), object).success);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use mpil;
pub use mpil_analysis;
pub use mpil_chord;
pub use mpil_gossip;
pub use mpil_harness;
pub use mpil_id;
pub use mpil_kademlia;
pub use mpil_net;
pub use mpil_overlay;
pub use mpil_pastry;
pub use mpil_sim;
pub use mpil_workload;
