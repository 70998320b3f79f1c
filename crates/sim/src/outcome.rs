//! The terminal state of a discovery operation, shared by every engine.
//!
//! MPIL's dynamic agents and the three maintained-DHT baselines (Chord,
//! Kademlia, MSPastry) all resolve lookups the same way: a lookup either
//! has no terminal event yet, succeeded with a first reply before its
//! deadline, or failed. Keeping the enum here — next to the kernel both
//! kinds of engines run on — lets the harness compare outcomes across
//! substrates without per-engine conversion glue.

use crate::time::SimDuration;

/// Outcome of one lookup issued against any discovery engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// No terminal event yet.
    Pending,
    /// A replica holder's reply reached the origin before the deadline.
    Succeeded {
        /// Forward-path hops (RPC depth for iterative protocols) of the
        /// first reply.
        hops: u32,
        /// Time from issue to first reply.
        latency: SimDuration,
    },
    /// The deadline passed with no positive reply, a negative reply
    /// arrived, or the message was lost.
    Failed,
}

impl LookupOutcome {
    /// Returns `true` for [`LookupOutcome::Succeeded`].
    pub fn is_success(&self) -> bool {
        matches!(self, LookupOutcome::Succeeded { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_predicate() {
        assert!(LookupOutcome::Succeeded {
            hops: 2,
            latency: SimDuration::from_millis(40),
        }
        .is_success());
        assert!(!LookupOutcome::Pending.is_success());
        assert!(!LookupOutcome::Failed.is_success());
    }
}
