//! MPIL message types.

use mpil_id::Id;
use mpil_overlay::NodeIdx;

/// Unique identifier of one insert or lookup operation.
///
/// The paper notes that when duplicate suppression is used with repeated
/// queries, "a sequence number or a random number should be attached to
/// distinguish the message from old messages with the same message ID" —
/// `MessageId` is that sequence number: every operation gets a fresh one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// What an MPIL message is trying to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Deposit an object pointer at local maxima.
    Insert,
    /// Find a node storing the object pointer.
    Lookup,
}

/// One in-flight copy of an MPIL message (one flow's head).
///
/// Carries the state Figure 5's pseudo-code reads: the object ID being
/// routed on, the remaining flow quota (`max_flows` field), the per-flow
/// replica countdown, and the `route` list of visited nodes that prevents
/// a copy from revisiting nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Operation identity (for duplicate suppression).
    pub msg_id: MessageId,
    /// Insert or lookup.
    pub kind: MessageKind,
    /// The object ID the metric is computed against.
    pub object: Id,
    /// The node that originated the operation (lookup replies go here).
    pub origin: NodeIdx,
    /// Remaining flow budget carried by this copy.
    pub quota: u32,
    /// How many more local maxima this flow may deposit at / pass.
    pub replicas_left: u32,
    /// Overlay hops traveled so far.
    pub hops: u32,
    /// Nodes this copy has visited (most recent last). Forwarding excludes
    /// these.
    pub route: Vec<NodeIdx>,
}

impl Message {
    /// Creates the initial message of an operation, as held by `origin`
    /// before its first forwarding step.
    pub fn initial(
        msg_id: MessageId,
        kind: MessageKind,
        object: Id,
        origin: NodeIdx,
        max_flows: u32,
        num_replicas: u32,
    ) -> Self {
        Message {
            msg_id,
            kind,
            object,
            origin,
            quota: max_flows,
            replicas_left: num_replicas,
            hops: 0,
            route: Vec::new(),
        }
    }

    /// Derives the copy forwarded from `via` with the given child quota.
    /// (A hop count of `u32::MAX`, which no sender writes, stays there.)
    pub fn forwarded(&self, via: NodeIdx, child_quota: u32) -> Self {
        let mut route = Vec::with_capacity(self.route.len() + 1);
        route.extend_from_slice(&self.route);
        route.push(via);
        Message {
            msg_id: self.msg_id,
            kind: self.kind,
            object: self.object,
            origin: self.origin,
            quota: child_quota,
            replicas_left: self.replicas_left,
            hops: self.hops.saturating_add(1),
            route,
        }
    }

    /// Has this copy already visited `node`?
    pub(crate) fn visited(&self, node: NodeIdx) -> bool {
        self.route.contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::initial(
            MessageId(1),
            MessageKind::Lookup,
            Id::from_low_u64(99),
            NodeIdx::new(0),
            10,
            5,
        )
    }

    #[test]
    fn initial_message_state() {
        let m = msg();
        assert_eq!(m.quota, 10);
        assert_eq!(m.replicas_left, 5);
        assert_eq!(m.hops, 0);
        assert!(m.route.is_empty());
    }

    #[test]
    fn forwarding_extends_route_and_hops() {
        let m = msg();
        let f = m.forwarded(NodeIdx::new(0), 4);
        assert_eq!(f.hops, 1);
        assert_eq!(f.quota, 4);
        assert_eq!(f.route, vec![NodeIdx::new(0)]);
        assert!(f.visited(NodeIdx::new(0)));
        assert!(!f.visited(NodeIdx::new(1)));
        let g = f.forwarded(NodeIdx::new(3), 1);
        assert_eq!(g.route, vec![NodeIdx::new(0), NodeIdx::new(3)]);
        assert_eq!(g.hops, 2);
        // replicas_left is inherited, not divided.
        assert_eq!(g.replicas_left, 5);
    }

    #[test]
    fn message_id_displays() {
        assert_eq!(MessageId(42).to_string(), "m42");
    }
}
