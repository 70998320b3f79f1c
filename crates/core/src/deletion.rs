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

use fxhash::FxHashMap;
use mpil_id::{Id, IdMap};
use mpil_overlay::NodeIdx;
use mpil_sim::SimTime;

/// Owner-side view of where an object's replicas live.
///
/// Heartbeats both register holders and refresh their freshness stamp, so
/// an owner can also expire holders it has not heard from (a holder that
/// was deleted while perturbed, for instance).
#[derive(Debug, Clone, Default)]
pub struct ReplicaRegistry {
    holders: IdMap<FxHashMap<NodeIdx, SimTime>>,
}

impl ReplicaRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a heartbeat for `object` from `holder` at `now`.
    pub fn heartbeat(&mut self, object: Id, holder: NodeIdx, now: SimTime) {
        if let Some(m) = self.holders.get_mut(&object) {
            m.insert(holder, now);
        } else {
            let mut m = FxHashMap::default();
            m.insert(holder, now);
            self.holders.insert(object, m);
        }
    }

    /// Known holders of `object`, in ascending node order (sorted so
    /// downstream message sequences are deterministic).
    pub fn holders(&self, object: Id) -> Vec<NodeIdx> {
        #[expect(clippy::disallowed_methods, reason = "D003: sorted below")]
        let mut v: Vec<NodeIdx> = self
            .holders
            .get(&object)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Holders heard from since `cutoff`, in ascending node order.
    pub fn fresh_holders(&self, object: Id, cutoff: SimTime) -> Vec<NodeIdx> {
        #[expect(clippy::disallowed_methods, reason = "D003: sorted below")]
        let mut v: Vec<NodeIdx> = self
            .holders
            .get(&object)
            .map(|m| {
                m.iter()
                    .filter(|&(_, &t)| t >= cutoff)
                    .map(|(&n, _)| n)
                    .collect()
            })
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Forgets `object` entirely (after a delete round). Returns the
    /// holders that were known, in ascending node order (so the delete
    /// fan-out is a deterministic message sequence).
    pub fn forget(&mut self, object: Id) -> Vec<NodeIdx> {
        #[expect(clippy::disallowed_methods, reason = "D003: sorted below")]
        let mut v: Vec<NodeIdx> = self
            .holders
            .remove(&object)
            .map(|m| m.into_keys().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Number of objects tracked.
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// Returns `true` if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
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
        reg.heartbeat(obj(1), node(3), SimTime::from_secs(10));
        reg.heartbeat(obj(1), node(4), SimTime::from_secs(11));
        reg.heartbeat(obj(2), node(3), SimTime::from_secs(12));
        let mut h = reg.holders(obj(1));
        h.sort();
        assert_eq!(h, vec![node(3), node(4)]);
        assert_eq!(reg.holders(obj(2)), vec![node(3)]);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn repeated_heartbeats_refresh_not_duplicate() {
        let mut reg = ReplicaRegistry::new();
        reg.heartbeat(obj(1), node(3), SimTime::from_secs(1));
        reg.heartbeat(obj(1), node(3), SimTime::from_secs(5));
        assert_eq!(reg.holders(obj(1)).len(), 1);
        assert_eq!(
            reg.fresh_holders(obj(1), SimTime::from_secs(3)),
            vec![node(3)]
        );
    }

    #[test]
    fn fresh_holders_filters_stale() {
        let mut reg = ReplicaRegistry::new();
        reg.heartbeat(obj(1), node(1), SimTime::from_secs(1));
        reg.heartbeat(obj(1), node(2), SimTime::from_secs(100));
        let fresh = reg.fresh_holders(obj(1), SimTime::from_secs(50));
        assert_eq!(fresh, vec![node(2)]);
    }

    #[test]
    fn forget_clears_object() {
        let mut reg = ReplicaRegistry::new();
        reg.heartbeat(obj(1), node(1), SimTime::ZERO);
        let gone = reg.forget(obj(1));
        assert!(gone.contains(&node(1)));
        assert!(reg.is_empty());
        assert!(reg.forget(obj(1)).is_empty());
    }

    #[test]
    fn unknown_object_has_no_holders() {
        let reg = ReplicaRegistry::new();
        assert!(reg.holders(obj(9)).is_empty());
        assert!(reg.fresh_holders(obj(9), SimTime::ZERO).is_empty());
    }
}
