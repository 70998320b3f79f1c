//! Chord configuration.

use mpil_sim::SimDuration;

/// Chord parameters.
///
/// Defaults mirror the maintenance cadence of the paper's MSPastry
/// configuration (Section 6.2) so the two baselines spend comparable
/// effort on upkeep: stabilization every 30 s (like leaf-set probing),
/// finger repair every 90 s (like routing-table probing), a 3 s probe
/// timeout and 2 retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChordConfig {
    /// Successor-list length `r` (Stoica et al. recommend `Ω(log N)`;
    /// 8 matches Pastry's leaf-set half-size budget).
    pub successor_list_len: usize,
    /// Period of the stabilize protocol (successor-pointer repair).
    pub stabilize_period: SimDuration,
    /// Period of finger repair; one finger is refreshed per firing,
    /// round-robin.
    pub fix_fingers_period: SimDuration,
    /// Period of predecessor liveness checking.
    pub check_predecessor_period: SimDuration,
    /// Probe/ack timeout.
    pub probe_timeout: SimDuration,
    /// Retries before a peer is declared failed.
    pub probe_retries: u32,
    /// Hop limit on routed messages (loop guard; lookups on a converged
    /// ring take `O(log N)` hops).
    pub max_hops: u32,
    /// Number of replicas: the root stores the pointer and pushes copies
    /// to its `replication - 1` immediate successors (DHash-style). The
    /// paper's single-copy DHT behavior is `replication = 1`.
    pub replication: usize,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            successor_list_len: 8,
            stabilize_period: SimDuration::from_secs(30),
            fix_fingers_period: SimDuration::from_secs(90),
            check_predecessor_period: SimDuration::from_secs(30),
            probe_timeout: SimDuration::from_secs(3),
            probe_retries: 2,
            max_hops: 64,
            replication: 1,
        }
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
    /// Panics if the successor list or replication factor is zero, or any
    /// period is zero.
    pub fn assert_valid(&self) {
        assert!(
            self.successor_list_len >= 1,
            "successor list must be non-empty"
        );
        assert!(self.replication >= 1, "replication factor must be >= 1");
        assert!(
            self.replication <= self.successor_list_len,
            "replication cannot exceed the successor list length"
        );
        assert!(!self.stabilize_period.is_zero());
        assert!(!self.fix_fingers_period.is_zero());
        assert!(!self.check_predecessor_period.is_zero());
        assert!(!self.probe_timeout.is_zero());
        assert!(self.max_hops > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_pastry_cadence() {
        let c = ChordConfig::default();
        c.assert_valid();
        assert_eq!(c.stabilize_period, SimDuration::from_secs(30));
        assert_eq!(c.fix_fingers_period, SimDuration::from_secs(90));
        assert_eq!(c.probe_timeout, SimDuration::from_secs(3));
        assert_eq!(c.probe_retries, 2);
        assert_eq!(c.replication, 1);
    }

    #[test]
    fn builders_set_fields() {
        let c = ChordConfig {
            successor_list_len: 12,
            ..ChordConfig::default()
        }
        .with_replication(4);
        assert_eq!(c.replication, 4);
        assert_eq!(c.successor_list_len, 12);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "replication cannot exceed")]
    fn replication_beyond_successors_rejected() {
        ChordConfig::default().with_replication(9).assert_valid();
    }
}
