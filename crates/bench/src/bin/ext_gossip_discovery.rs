//! Extension: epidemic gossip discovery vs DHTs vs MPIL under flapping
//! ([`mpil_bench::figures::ext_gossip_discovery`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ext_gossip_discovery [--full] [--csv] [--seed N] [--nodes N] [--ops K] [--dissemination]
//! ```
//!
//! `--dissemination` switches to the dissemination-layer comparison:
//! Plumtree tree queries and FOAF bounded-fanout walks on the
//! HyParView/Plumtree engine vs the expanding-ring flood they replace
//! (plus MPIL routed over the frozen HyParView active graph), with
//! msgs/lookup and convergence-after-flap columns. The default table's
//! engine set, RNG streams, and bytes are unchanged.

fn main() {
    mpil_bench::print(mpil_bench::figures::ext_gossip_discovery);
}
