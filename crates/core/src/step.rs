//! The one MPIL routing step (Figure 5 of the paper), free of any
//! world: no queue, no clock, no socket.
//!
//! [`step`] decides what one node does with one non-duplicate copy of a
//! message — a holder answers a lookup; otherwise the routing rule is
//! evaluated, a local maximum deposits (or is passed), and the copy
//! splits under the flow quota — and says so in a [`Verdict`]. Its two
//! callers are [`Agent::receive`](crate::Agent::receive), the receive
//! path of every simulated and live node, and
//! [`StaticEngine`](crate::StaticEngine), which runs one operation at a
//! time and meets duplicates in a per-node stamp of the last operation
//! that reached each node.

use mpil_id::Id;
use mpil_overlay::NodeIdx;
use rand::Rng;

use crate::config::MpilConfig;
use crate::flow::{plan_forwarding, select_candidates, ForwardPlan};
use crate::message::{Message, MessageKind};
use crate::routing::routing_decision_policy;

/// What [`step`] decided for one copy at one node.
#[derive(Debug)]
pub enum Verdict {
    /// A lookup reached a node holding the object: the node replies
    /// and this flow stops (Section 4.4).
    Replied,
    /// The copy was routed.
    Routed {
        /// The node is a local maximum and the message an insert: the
        /// node stores the pointer.
        deposited: bool,
        /// Flows newly created by this step (what Table 3 sums).
        flows_created: u32,
        /// The copies to forward, one per chosen neighbor; empty when
        /// the flow ends here.
        copies: Copies,
    },
}

/// The forwarded copies of one routed message, yielded as
/// `(next hop, copy)` in the order the flow quota was dealt: the `i`-th
/// copy carries the plan's [`child_quota(i)`](ForwardPlan::child_quota),
/// computed as it is yielded.
#[derive(Debug)]
pub struct Copies {
    parent: Message,
    via: NodeIdx,
    targets: std::iter::Enumerate<std::vec::IntoIter<NodeIdx>>,
    plan: ForwardPlan,
}

impl Iterator for Copies {
    type Item = (NodeIdx, Message);

    fn next(&mut self) -> Option<(NodeIdx, Message)> {
        let (i, target) = self.targets.next()?;
        let quota = self.plan.child_quota(i as u32);
        Some((target, self.parent.forwarded(self.via, quota)))
    }
}

/// One MPIL step for `msg`, a copy node `at` has not handled before (or
/// handles again because duplicate suppression is off).
///
/// * `neighbors`, `ids` — `at`'s frozen neighbor list and the global ID
///   table;
/// * `holds_object` — does `at` store a pointer for `msg.object`?
/// * `rng` — draws the subset when more neighbors tie than the quota
///   allows (and only then).
pub fn step<R: Rng + ?Sized>(
    config: &MpilConfig,
    at: NodeIdx,
    neighbors: &[NodeIdx],
    ids: &[Id],
    holds_object: bool,
    mut msg: Message,
    rng: &mut R,
) -> Verdict {
    if msg.kind == MessageKind::Lookup && holds_object {
        return Verdict::Replied;
    }

    let given = if msg.hops == 0 { 0 } else { 1 };
    let decision = routing_decision_policy(
        config.space,
        msg.object,
        at,
        neighbors,
        ids,
        |n| msg.visited(n),
        config.split_policy,
        msg.quota.saturating_add(given),
        config.metric,
    );

    // A copy arriving with no replicas left (no sender writes one) ends
    // its flow at the first local maximum instead of wrapping around.
    let mut flow_ends = false;
    if decision.is_local_max {
        msg.replicas_left = msg.replicas_left.saturating_sub(1);
        flow_ends = msg.replicas_left == 0;
    }
    let (mut targets, mut plan) = (Vec::new(), ForwardPlan::default());
    if !flow_ends && !decision.candidates.is_empty() {
        plan = plan_forwarding(msg.quota, given, decision.candidates.len());
        if plan.m > 0 {
            // Choose which tied candidates to use when over quota.
            targets = select_candidates(decision.candidates, plan.m as usize, rng);
        }
    }
    Verdict::Routed {
        deposited: decision.is_local_max && msg.kind == MessageKind::Insert,
        flows_created: plan.flows_created,
        copies: Copies {
            parent: msg,
            via: at,
            targets: targets.into_iter().enumerate(),
            plan,
        },
    }
}
