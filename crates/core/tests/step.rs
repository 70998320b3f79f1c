//! [`mpil::step`] on the paper's own example, and its two verdicts.

use std::collections::VecDeque;

use mpil::{step, Message, MessageId, MessageKind, MpilConfig, SplitPolicy, Verdict};
use mpil_id::{Id, IdSpace};
use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The paper's Figure 6: nine nodes with 4-bit IDs (in the low bits
/// of 160-bit IDs) and the edges as drawn.
const BITS: [u64; 9] = [
    0b0001, 0b1001, 0b0000, 0b1110, 0b1111, 0b0011, 0b0101, 0b0010, 0b0100,
];
const EDGES: [(usize, usize); 8] = [
    (0, 1),
    (0, 2),
    (1, 3),
    (3, 4),
    (3, 5),
    (4, 6),
    (5, 7),
    (5, 8),
];

fn node(bits: u64) -> NodeIdx {
    let at = BITS
        .iter()
        .position(|&b| b == bits)
        .expect("a Figure 6 node");
    NodeIdx::new(at as u32)
}

#[test]
fn figure6_insert_deposits_at_1001_1111_0011() {
    let ids: Vec<Id> = BITS.iter().map(|&b| Id::from_low_u64(b)).collect();
    let mut neighbors = vec![Vec::new(); BITS.len()];
    for (a, b) in EDGES {
        neighbors[a].push(NodeIdx::new(b as u32));
        neighbors[b].push(NodeIdx::new(a as u32));
    }
    let config = MpilConfig::default()
        .with_max_flows(2)
        .with_num_replicas(2)
        .with_split_policy(SplitPolicy::MetricTies)
        .with_space(IdSpace::base2());
    let mut rng = SmallRng::seed_from_u64(1);
    let object = Id::from_low_u64(0b1011);
    let origin = node(0b0001);
    let insert = Message::initial(MessageId(0), MessageKind::Insert, object, origin, 2, 2);

    // (node, deposited, flows created, [(next hop, quota, replicas left)])
    let mut trace = Vec::new();
    let mut queue = VecDeque::from([(origin, insert)]);
    while let Some((at, msg)) = queue.pop_front() {
        let verdict = step(
            &config,
            at,
            &neighbors[at.index()],
            &ids,
            false,
            msg,
            &mut rng,
        );
        let Verdict::Routed {
            deposited,
            flows_created,
            copies,
        } = verdict
        else {
            panic!("an insert is never answered");
        };
        let mut sent = Vec::new();
        for (to, copy) in copies {
            assert_eq!(copy.route.last(), Some(&at));
            sent.push((to, copy.quota, copy.replicas_left));
            queue.push_back((to, copy));
        }
        trace.push((at, deposited, flows_created, sent));
    }
    assert_eq!(
        trace,
        vec![
            // The origin spends one of its two flows on its one
            // better neighbor.
            (origin, false, 1, vec![(node(0b1001), 1, 2)]),
            // 1001 is a local maximum: first replica, and the flow
            // goes on to look for its second.
            (node(0b1001), true, 0, vec![(node(0b1110), 1, 1)]),
            // 1110 sees a tie and has quota for both: one new flow.
            (
                node(0b1110),
                false,
                1,
                vec![(node(0b1111), 0, 1), (node(0b0011), 0, 1)]
            ),
            // Each flow deposits its last replica and ends.
            (node(0b1111), true, 0, vec![]),
            (node(0b0011), true, 0, vec![]),
        ]
    );
}

#[test]
fn a_holder_answers_a_lookup_and_routes_an_insert() {
    let ids = vec![Id::from_low_u64(1), Id::from_low_u64(2)];
    let neighbors = [NodeIdx::new(1)];
    let config = MpilConfig::default();
    let mut rng = SmallRng::seed_from_u64(1);
    let at = NodeIdx::new(0);
    let msg = |kind| Message::initial(MessageId(0), kind, ids[1], at, 4, 2);
    let lookup = step(
        &config,
        at,
        &neighbors,
        &ids,
        true,
        msg(MessageKind::Lookup),
        &mut rng,
    );
    assert!(matches!(lookup, Verdict::Replied));
    let insert = step(
        &config,
        at,
        &neighbors,
        &ids,
        true,
        msg(MessageKind::Insert),
        &mut rng,
    );
    let Verdict::Routed { copies, .. } = insert else {
        panic!("holding an object does not stop an insert");
    };
    assert_eq!(copies.map(|(to, _)| to).collect::<Vec<_>>(), neighbors);
}
