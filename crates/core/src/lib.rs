//! # mpil — Multi-Path Insertion/Lookup
//!
//! A faithful implementation of **MPIL**, the resource location and
//! discovery algorithm of *"Perturbation-Resistant and Overlay-Independent
//! Resource Discovery"* (Ko & Gupta, DSN 2005).
//!
//! MPIL inserts and looks up object pointers over **any** overlay graph,
//! using only each node's local neighbor list:
//!
//! * the **routing metric** is the number of digits (base `2^b`) an ID
//!   shares with a node's ID at the same positions — the zero digits of
//!   their XOR (Section 4.1);
//! * a message is forwarded to *every* neighbor tied at the best metric,
//!   subject to a **`max_flows`** quota that is consumed and subdivided as
//!   flows split (Section 4.3);
//! * objects are stored at **local maxima** — nodes none of whose
//!   neighbors score higher — and each flow deposits (or, for lookups,
//!   visits) up to **`num_replicas`** of them (Section 4.4).
//!
//! The redundancy of multiple flows and replicas is what buys
//! perturbation-resistance; the metric's indifference to graph structure
//! is what buys overlay-independence.
//!
//! What one node does with one copy of a message — Figure 5 — is one
//! function, [`step()`], free of any world; one node's state around it
//! (replica store, bounded duplicate memory) is one [`Agent`]. Two
//! execution engines in this crate (and the live shards of `mpil_net`,
//! which host [`Agent`]s too) run them:
//!
//! * [`StaticEngine`] — a message-level engine over a static
//!   [`Topology`](mpil_overlay::Topology), equivalent to the paper's
//!   Python simulator (Section 6.1: Figures 9–10, Tables 1–3);
//! * [`DynamicNetwork`] — event-driven agents ([`Mpil`]) over the
//!   [`mpil_sim`] kernel with latencies and perturbation (Section 6.2:
//!   Figures 11–12), including running MPIL over a frozen Pastry overlay.
//!
//! ```
//! use mpil::{MpilConfig, StaticEngine};
//! use mpil_overlay::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let topo = generators::random_regular(64, 8, &mut rng)?;
//! let config = MpilConfig::default().with_max_flows(10).with_num_replicas(3);
//! let mut engine = StaticEngine::new(&topo, config, 42);
//!
//! let origin = mpil_overlay::NodeIdx::new(0);
//! let object = mpil_id::Id::from_low_u64(0xfeed);
//! let ins = engine.insert(origin, object);
//! assert!(ins.replicas >= 1);
//!
//! let finder = mpil_overlay::NodeIdx::new(33);
//! let look = engine.lookup(finder, object);
//! assert!(look.success);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod agent;
mod baselines;
mod config;
mod deletion;
mod flow;
mod message;
mod node;
mod report;
mod routing;
mod static_engine;
mod step;

pub use agent::{DynamicConfig, DynamicNetwork, LookupStatus, Mpil};
pub use baselines::UnstructuredEngine;
pub use config::{ConfigError, MpilConfig, RoutingMetric, SplitPolicy};
pub use flow::{plan_forwarding, ForwardPlan};
pub use message::{Message, MessageId, MessageKind};
pub use node::{Agent, Receipt};
pub use report::{InsertReport, LookupReport};
pub use routing::{routing_decision, RoutingDecision};
pub use static_engine::StaticEngine;
pub use step::{step, Copies, Verdict};
