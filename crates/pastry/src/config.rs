//! Pastry configuration.

use mpil_id::IdSpace;
use mpil_sim::SimDuration;

/// Pastry parameters. Defaults reproduce the paper's Section 6.2 list:
///
/// ```text
/// 1. b : 4                                  -> IdSpace::base16()
/// 2. l : 8                                  -> leaf_set_size
/// 3. Leafset probing period : 30 seconds
/// 4. Routing table maintenance period : 12000 seconds
/// 5. Routing table probing period : 90 seconds
/// 6. Probe timeout : 3
/// 7. Probe retries : 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PastryConfig {
    /// Digit width of the key space (`b = 4` → base-16).
    pub space: IdSpace,
    /// Leaf set size `l` (half on each side of the ring).
    pub leaf_set_size: usize,
    /// Period of leaf-set liveness probing.
    pub leafset_probe_period: SimDuration,
    /// Period of routing-table entry probing.
    pub rt_probe_period: SimDuration,
    /// Period of routing-table maintenance (row exchange).
    pub rt_maintenance_period: SimDuration,
    /// Probe/ack timeout.
    pub probe_timeout: SimDuration,
    /// Probe/message retries before declaring a node failed.
    pub probe_retries: u32,
    /// Maximum overlay hops before a routed message is dropped
    /// (loop guard; generous compared to the ~3-hop paths of a
    /// 1000-node overlay).
    pub max_hops: u32,
    /// Replication on Route: every node on an insertion's path stores a
    /// replica ("MSPastry with RR" in Figure 11).
    pub replication_on_route: bool,
}

impl Default for PastryConfig {
    fn default() -> Self {
        PastryConfig {
            space: IdSpace::base16(),
            leaf_set_size: 8,
            leafset_probe_period: SimDuration::from_secs(30),
            rt_probe_period: SimDuration::from_secs(90),
            rt_maintenance_period: SimDuration::from_secs(12_000),
            probe_timeout: SimDuration::from_secs(3),
            probe_retries: 2,
            max_hops: 64,
            replication_on_route: false,
        }
    }
}

impl PastryConfig {
    /// Enables or disables Replication on Route.
    pub fn with_replication_on_route(mut self, rr: bool) -> Self {
        self.replication_on_route = rr;
        self
    }

    /// Validates parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_set_size` is zero or odd, or periods are zero.
    pub fn assert_valid(&self) {
        assert!(self.leaf_set_size >= 2, "leaf set must hold >= 2 nodes");
        assert!(
            self.leaf_set_size.is_multiple_of(2),
            "leaf set size must be even (half per side)"
        );
        assert!(!self.leafset_probe_period.is_zero());
        assert!(!self.rt_probe_period.is_zero());
        assert!(!self.rt_maintenance_period.is_zero());
        assert!(!self.probe_timeout.is_zero());
        assert!(self.max_hops > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_6_2() {
        let c = PastryConfig::default();
        assert_eq!(c.space, IdSpace::base16());
        assert_eq!(c.leaf_set_size, 8);
        assert_eq!(c.leafset_probe_period, SimDuration::from_secs(30));
        assert_eq!(c.rt_probe_period, SimDuration::from_secs(90));
        assert_eq!(c.rt_maintenance_period, SimDuration::from_secs(12_000));
        assert_eq!(c.probe_timeout, SimDuration::from_secs(3));
        assert_eq!(c.probe_retries, 2);
        assert!(!c.replication_on_route);
        c.assert_valid();
    }

    #[test]
    fn rr_builder_toggles() {
        assert!(
            PastryConfig::default()
                .with_replication_on_route(true)
                .replication_on_route
        );
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_leaf_set_rejected() {
        let c = PastryConfig {
            leaf_set_size: 7,
            ..PastryConfig::default()
        };
        c.assert_valid();
    }
}
