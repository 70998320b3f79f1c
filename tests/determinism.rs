//! The determinism contract as a tier-1 fact.
//!
//! Every `scale_run` engine is driven through [`run_point`] — the
//! two-stage perturbation methodology, maintenance and flapping
//! included — at a size a debug build finishes in seconds, and its
//! `(sent, events, success_rate)` is held to the values the tree
//! produced before the engines were ported onto the one `Sim<P>` shell
//! (recorded from commit 806b8e4; the `gossip` row since its k-walk
//! search runs over HyParView views). A refactor of an engine, of the
//! shell or of the kernel that changes an RNG draw, a send, or the
//! order of two same-tick events moves at least one of these counts.
//!
//! [`run_scenario`] and [`run_point`] are two readers of one drive (the
//! stage methods of `mpil_harness::PreparedRun`): on the same scenario
//! they must report the same success rate and the same lookup traffic.

use mpil_bench::scale_curve::run_point;
use mpil_harness::{run_scenario, EngineSpec, PerturbRun, Scenario};

const NODES: usize = 300;
const OPS: usize = 10;
const P: f64 = 0.5;
const SEED: u64 = 1;

/// `(engine, sent, events, success_rate)` at the sizes above.
const PINNED: [(&str, u64, u64, f64); 7] = [
    ("gossip", 67_665, 127_550, 100.0),
    ("plumtree", 88_138, 130_237, 100.0),
    ("foaf", 88_170, 130_197, 100.0),
    ("chord", 71_521, 114_990, 80.0),
    ("pastry", 223_605, 307_834, 70.0),
    ("kademlia", 59_083, 84_375, 100.0),
    ("mpil-regular", 1_386, 143, 100.0),
];

#[test]
fn every_scale_engine_repeats_its_pinned_counts() {
    let mut measured = Vec::new();
    for (name, ..) in PINNED {
        let spec = EngineSpec::named(name).expect("a system");
        let point = run_point(spec, NODES, OPS, P, SEED);
        measured.push((name, point.sent, point.events, point.success_rate));

        let mut run = PerturbRun::new(30, 30, P);
        run.nodes = NODES;
        run.operations = OPS;
        run.seed = SEED;
        let result = run_scenario(&Scenario::new(spec, run));
        assert_eq!(
            (result.success_rate, result.lookup_messages),
            (point.success_rate, point.lookup_msgs),
            "{name}: run_scenario and run_point disagree on one drive"
        );
    }
    assert_eq!(
        measured,
        PINNED.to_vec(),
        "(engine, sent, events, success_rate) moved"
    );
}
