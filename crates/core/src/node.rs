//! One node's MPIL state and its one receive path, shared by every
//! world that hosts nodes: the simulated [`Mpil`](crate::Mpil) agents
//! and `mpil_net`'s live shard each hold an [`Agent`] per node and keep
//! only where a reply, a store-ack or a copy goes, and who owns the RNG.

use fxhash::FxHashSet;
use mpil_id::{Id, IdMap};
use mpil_overlay::NodeIdx;
use rand::Rng;

use crate::config::MpilConfig;
use crate::message::{Message, MessageId};
use crate::step::{step, Verdict};

/// What [`Agent::receive`] made of one copy: what the world must do.
#[derive(Debug)]
pub struct Receipt {
    /// The node had received this message before.
    pub duplicate: bool,
    /// An insert deposited a pointer the node did not hold yet.
    pub newly_stored: bool,
    /// What [`step`] decided; `None` if duplicate suppression dropped
    /// the copy.
    pub verdict: Option<Verdict>,
}

/// One node's MPIL state: the replicas deposited at it and the message
/// ids it received lately. A fresh agent allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Agent {
    /// Object → the node that inserted it.
    store: IdMap<NodeIdx>,
    seen: SeenIds,
}

impl Agent {
    /// One copy of `msg` arriving at `at`, the node this agent is: a
    /// duplicate is counted (and dropped under duplicate suppression),
    /// anything else goes through [`step`] and a deposit is stored.
    pub fn receive<R: Rng + ?Sized>(
        &mut self,
        config: &MpilConfig,
        at: NodeIdx,
        neighbors: &[NodeIdx],
        ids: &[Id],
        msg: Message,
        rng: &mut R,
    ) -> Receipt {
        let duplicate = !self.seen.insert(msg.msg_id);
        let mut receipt = Receipt {
            duplicate,
            newly_stored: false,
            verdict: None,
        };
        if duplicate && config.duplicate_suppression {
            return receipt;
        }
        let (object, origin) = (msg.object, msg.origin);
        let holds = self.store.contains_key(&object);
        let verdict = step(config, at, neighbors, ids, holds, msg, rng);
        if let Verdict::Routed {
            deposited: true, ..
        } = verdict
        {
            receipt.newly_stored = self.store.insert(object, origin).is_none();
        }
        receipt.verdict = Some(verdict);
        receipt
    }

    /// The node that inserted `object`, if a replica of it is stored here.
    pub fn replica(&self, object: Id) -> Option<NodeIdx> {
        self.store.get(&object).copied()
    }

    /// Deletes the replica of `object`, if one is stored here.
    pub fn delete(&mut self, object: Id) {
        self.store.remove(&object);
    }
}

/// Distinct message ids one generation of a [`SeenIds`] holds: seven
/// eighths of 4096, the most a 4096-bucket table takes without growing.
const SEEN_GENERATION: usize = 3584;

/// The message ids a node received lately, in bounded memory: ids go
/// into the current generation; a full one becomes the previous and the
/// previous is forgotten. An id is remembered until [`SEEN_GENERATION`]
/// other distinct ids arrived after it, far longer than the copies of
/// one operation take to cross a node, and each table grows from empty
/// to 4096 buckets, never further.
#[derive(Debug, Clone, Default)]
struct SeenIds {
    current: FxHashSet<MessageId>,
    previous: FxHashSet<MessageId>,
}

impl SeenIds {
    /// Records `id`; `false` if it was already remembered.
    fn insert(&mut self, id: MessageId) -> bool {
        if self.previous.contains(&id) || !self.current.insert(id) {
            return false;
        }
        if self.current.len() >= SEEN_GENERATION {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhash::FxHashMap;
    use proptest::prelude::*;

    #[test]
    fn seen_ids_remember_a_generation_and_stay_bounded() {
        let generation = SEEN_GENERATION as u64;
        let mut seen = SeenIds::default();
        for id in 0..3 * generation {
            assert!(seen.insert(MessageId(id)));
            // Wherever it sits in its generation, an id is remembered
            // while fewer than SEEN_GENERATION others arrived after it
            // (probing a remembered id changes nothing).
            if let Some(old) = id.checked_sub(generation - 1) {
                assert!(!seen.insert(MessageId(old)), "{old} forgotten at {id}");
            }
        }
        for id in 3 * generation..1_000_000 {
            assert!(seen.insert(MessageId(id)));
        }
        assert!(!seen.insert(MessageId(999_999)));
        assert!(seen.insert(MessageId(0)), "old ids are forgotten");
        assert!(seen.current.len() + seen.previous.len() <= 2 * SEEN_GENERATION);
        // 4096 buckets hold SEEN_GENERATION ids: the tables never grew
        // past them.
        assert!(seen.current.capacity() + seen.previous.capacity() <= 2 * SEEN_GENERATION);
    }

    /// A 50 000-node `Sim<Mpil>` pays nothing up front for its agents.
    #[test]
    fn a_fresh_agent_owns_no_heap_allocation() {
        let agent = Agent::default();
        let capacities = (
            agent.store.capacity(),
            agent.seen.current.capacity(),
            agent.seen.previous.capacity(),
        );
        assert_eq!(capacities, (0, 0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Over any stream of ids: a first reception is never a
        /// duplicate; a re-reception before SEEN_GENERATION other
        /// distinct ids arrived since the id was recorded always is; and
        /// neither generation grows past 4096 buckets.
        #[test]
        fn seen_ids_report_every_re_reception_within_a_generation(
            stream in prop::collection::vec(0u64..6_000, 0..12_000),
        ) {
            let mut seen = SeenIds::default();
            // A Fenwick tree over positions marks each id's latest
            // reception: the marks in (a, b) count the distinct ids
            // received there.
            let mut marks = vec![0i64; stream.len() + 1];
            let mark = |marks: &mut [i64], at: usize, by: i64| {
                let mut i = at + 1;
                while i < marks.len() {
                    marks[i] += by;
                    i += i & i.wrapping_neg();
                }
            };
            let marked_before = |marks: &[i64], mut i: usize| {
                let mut sum = 0;
                while i > 0 {
                    sum += marks[i];
                    i &= i - 1;
                }
                sum
            };
            let mut latest: FxHashMap<u64, usize> = FxHashMap::default();
            let mut recorded: FxHashMap<u64, usize> = FxHashMap::default();
            for (at, &id) in stream.iter().enumerate() {
                let fresh = seen.insert(MessageId(id));
                if let Some(&since) = recorded.get(&id) {
                    let mut others = marked_before(&marks, at) - marked_before(&marks, since + 1);
                    others -= i64::from(latest[&id] > since);
                    if others < SEEN_GENERATION as i64 {
                        prop_assert!(!fresh, "{id} at {at}: {others} others since {since}");
                    }
                } else {
                    prop_assert!(fresh, "first reception of {id} at {at}");
                }
                if fresh {
                    recorded.insert(id, at);
                }
                if let Some(before) = latest.insert(id, at) {
                    mark(&mut marks, before, -1);
                }
                mark(&mut marks, at, 1);
                prop_assert!(seen.current.capacity() <= SEEN_GENERATION);
                prop_assert!(seen.previous.capacity() <= SEEN_GENERATION);
            }
        }
    }
}
