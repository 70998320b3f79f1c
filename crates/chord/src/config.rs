//! Chord configuration.

use crate::bootstrap::SUCCESSOR_LIST_LEN;

/// The Chord dial its drivers turn: DHash-style successor replication.
///
/// The maintenance cadence, probe timeout and retries, hop limit and
/// successor-list length are constants beside the code that reads them
/// (`engine.rs` and `bootstrap.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChordConfig {
    /// Number of replicas: the root stores the pointer and pushes copies
    /// to its `replication - 1` immediate successors (DHash-style). The
    /// paper's single-copy DHT behavior is `replication = 1`.
    pub replication: usize,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig { replication: 1 }
    }
}

impl ChordConfig {
    /// Sets the replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Validates parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics if the replication factor is zero or exceeds the successor
    /// list.
    pub fn assert_valid(&self) {
        assert!(self.replication >= 1, "replication factor must be >= 1");
        assert!(
            self.replication <= SUCCESSOR_LIST_LEN,
            "replication cannot exceed the successor list length"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        CHECK_PREDECESSOR_PERIOD, FIX_FINGERS_PERIOD, PROBE_RETRIES, PROBE_TIMEOUT,
        STABILIZE_PERIOD,
    };
    use mpil_sim::SimDuration;

    #[test]
    fn defaults_are_valid_and_match_pastry_cadence() {
        let c = ChordConfig::default();
        c.assert_valid();
        assert_eq!(STABILIZE_PERIOD, SimDuration::from_secs(30));
        assert_eq!(CHECK_PREDECESSOR_PERIOD, SimDuration::from_secs(30));
        assert_eq!(FIX_FINGERS_PERIOD, SimDuration::from_secs(90));
        assert_eq!(PROBE_TIMEOUT, SimDuration::from_secs(3));
        assert_eq!(PROBE_RETRIES, 2);
        assert_eq!(c.replication, 1);
    }

    #[test]
    fn builders_set_fields() {
        let c = ChordConfig::default().with_replication(SUCCESSOR_LIST_LEN);
        assert_eq!(c.replication, SUCCESSOR_LIST_LEN);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "replication cannot exceed")]
    fn replication_beyond_successors_rejected() {
        ChordConfig::default().with_replication(9).assert_valid();
    }
}
