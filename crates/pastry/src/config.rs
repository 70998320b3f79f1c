//! Pastry configuration.

/// The MSPastry dial its drivers turn: Replication on Route.
///
/// The rest of the paper's Section 6.2 list is constants beside the code
/// that reads them:
///
/// ```text
/// 1. b : 4                                  -> engine::SPACE (base 16)
/// 2. l : 8                                  -> bootstrap::LEAF_SET_SIZE
/// 3. Leafset probing period : 30 seconds    -> engine::LEAFSET_PROBE_PERIOD
/// 4. Routing table maintenance period : 12000 seconds
///                                           -> engine::RT_MAINTENANCE_PERIOD
/// 5. Routing table probing period : 90 seconds
///                                           -> engine::RT_PROBE_PERIOD
/// 6. Probe timeout : 3                      -> engine::PROBE_TIMEOUT
/// 7. Probe retries : 2                      -> engine::PROBE_RETRIES
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PastryConfig {
    /// Replication on Route: every node on an insertion's path stores a
    /// replica ("MSPastry with RR" in Figure 11).
    pub replication_on_route: bool,
}

impl PastryConfig {
    /// Enables or disables Replication on Route.
    pub fn with_replication_on_route(mut self, rr: bool) -> Self {
        self.replication_on_route = rr;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::LEAF_SET_SIZE;
    use crate::engine::{
        LEAFSET_PROBE_PERIOD, PROBE_RETRIES, PROBE_TIMEOUT, RT_MAINTENANCE_PERIOD, RT_PROBE_PERIOD,
        SPACE,
    };
    use mpil_id::IdSpace;
    use mpil_sim::SimDuration;

    #[test]
    fn defaults_match_paper_section_6_2() {
        assert_eq!(SPACE, IdSpace::base16());
        assert_eq!(LEAF_SET_SIZE, 8);
        assert_eq!(LEAFSET_PROBE_PERIOD, SimDuration::from_secs(30));
        assert_eq!(RT_PROBE_PERIOD, SimDuration::from_secs(90));
        assert_eq!(RT_MAINTENANCE_PERIOD, SimDuration::from_secs(12_000));
        assert_eq!(PROBE_TIMEOUT, SimDuration::from_secs(3));
        assert_eq!(PROBE_RETRIES, 2);
        assert!(!PastryConfig::default().replication_on_route);
    }

    #[test]
    fn rr_builder_toggles() {
        assert!(
            PastryConfig::default()
                .with_replication_on_route(true)
                .replication_on_route
        );
    }
}
