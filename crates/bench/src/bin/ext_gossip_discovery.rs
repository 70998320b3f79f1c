//! Extension: epidemic gossip discovery vs DHTs vs MPIL under flapping
//! ([`mpil_bench::figures::ext_gossip_discovery`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ext_gossip_discovery [--full] [--csv] [--seed N] [--nodes N] [--ops K] [--dissemination]
//! ```
//!
//! The default table puts k-random-walk and expanding-ring searches over
//! HyParView active views beside Chord, Kademlia, and MPIL routed over
//! the frozen active graph and over a random regular graph.
//! `--dissemination` switches to the dissemination-layer comparison:
//! Plumtree tree queries and FOAF bounded-fanout walks vs the
//! expanding-ring flood over the same membership (plus MPIL over the
//! frozen active graph), with msgs/lookup and convergence-after-flap
//! columns.

fn main() {
    mpil_bench::print(mpil_bench::figures::ext_gossip_discovery);
}
