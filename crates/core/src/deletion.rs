//! The deletion protocol sketched in Section 4.4 of the paper.
//!
//! > "Whenever a replica is placed in a node, the node sends a periodic
//! > heartbeat to the owner of the original object. When the originator
//! > wants to delete a replica, it sends an explicit delete message to
//! > the node."
//!
//! [`ReplicaRegistry`] is the owner-side bookkeeping: which nodes have
//! been heard from (via heartbeats) for each object the owner inserted.
//! The wire protocol itself lives in [`crate::agent`]; this module keeps
//! the registry logic separately testable.

use fxhash::FxHashSet;
use mpil_id::{Id, IdMap};
use mpil_overlay::NodeIdx;

/// Owner-side view of where an object's replicas live: every holder a
/// heartbeat has named, once however often it beats.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplicaRegistry {
    holders: IdMap<FxHashSet<NodeIdx>>,
}

impl ReplicaRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a heartbeat for `object` from `holder`.
    pub(crate) fn heartbeat(&mut self, object: Id, holder: NodeIdx) {
        if let Some(m) = self.holders.get_mut(&object) {
            m.insert(holder);
        } else {
            let mut m = FxHashSet::default();
            m.insert(holder);
            self.holders.insert(object, m);
        }
    }

    /// Forgets `object` entirely (after a delete round). Returns the
    /// holders that were known, in ascending node order (so the delete
    /// fan-out is a deterministic message sequence).
    pub(crate) fn forget(&mut self, object: Id) -> Vec<NodeIdx> {
        #[expect(clippy::disallowed_methods, reason = "D003: sorted below")]
        let mut v: Vec<NodeIdx> = self
            .holders
            .remove(&object)
            .map(|m| m.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(k: u64) -> Id {
        Id::from_low_u64(k)
    }

    fn node(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    #[test]
    fn heartbeats_register_holders() {
        let mut reg = ReplicaRegistry::new();
        reg.heartbeat(obj(1), node(4));
        reg.heartbeat(obj(1), node(3));
        reg.heartbeat(obj(2), node(3));
        assert_eq!(reg.forget(obj(1)), vec![node(3), node(4)]);
        assert_eq!(reg.forget(obj(2)), vec![node(3)]);
    }

    #[test]
    fn repeated_heartbeats_do_not_duplicate() {
        let mut reg = ReplicaRegistry::new();
        reg.heartbeat(obj(1), node(3));
        reg.heartbeat(obj(1), node(3));
        assert_eq!(reg.forget(obj(1)), vec![node(3)]);
    }

    #[test]
    fn forget_clears_object() {
        let mut reg = ReplicaRegistry::new();
        reg.heartbeat(obj(1), node(1));
        let gone = reg.forget(obj(1));
        assert!(gone.contains(&node(1)));
        assert!(reg.forget(obj(1)).is_empty());
    }

    #[test]
    fn unknown_object_has_no_holders() {
        let mut reg = ReplicaRegistry::new();
        reg.heartbeat(obj(1), node(1));
        assert!(reg.forget(obj(9)).is_empty());
        assert_eq!(reg.forget(obj(1)), vec![node(1)]);
    }
}
