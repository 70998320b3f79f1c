//! Kademlia configuration.

/// The Kademlia dials its drivers turn (Maymounkov & Mazières, IPTPS
/// 2002): bucket size and lookup parallelism.
///
/// Defaults scale the original paper's wide-area values down to the
/// simulation sizes used in the MPIL experiments: `k = 8` (bucket size
/// and replication) and `α = 3` (lookup parallelism). The RPC timeout
/// and the bucket-refresh period are constants beside the handlers that
/// read them (`engine.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KademliaConfig {
    /// Bucket capacity and storage replication factor `k`.
    pub k: usize,
    /// Lookup parallelism `α`: RPCs kept in flight per iterative query.
    pub alpha: usize,
}

impl Default for KademliaConfig {
    fn default() -> Self {
        KademliaConfig { k: 8, alpha: 3 }
    }
}

impl KademliaConfig {
    /// Sets the bucket size / replication factor `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the lookup parallelism `α`.
    pub fn with_alpha(mut self, alpha: usize) -> Self {
        self.alpha = alpha;
        self
    }

    /// Validates parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `alpha` is zero, or `alpha > k`.
    pub fn assert_valid(&self) {
        assert!(self.k >= 1, "k must be >= 1");
        assert!(self.alpha >= 1, "alpha must be >= 1");
        assert!(self.alpha <= self.k, "alpha cannot exceed k");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BUCKET_REFRESH_PERIOD, RPC_TIMEOUT};
    use mpil_sim::SimDuration;

    #[test]
    fn defaults_are_valid() {
        let c = KademliaConfig::default();
        c.assert_valid();
        assert_eq!(c.k, 8);
        assert_eq!(c.alpha, 3);
        assert_eq!(RPC_TIMEOUT, SimDuration::from_secs(3));
        assert_eq!(BUCKET_REFRESH_PERIOD, SimDuration::from_secs(90));
    }

    #[test]
    fn builders_set_fields() {
        let c = KademliaConfig::default().with_k(20).with_alpha(5);
        assert_eq!((c.k, c.alpha), (20, 5));
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "alpha cannot exceed k")]
    fn alpha_beyond_k_rejected() {
        KademliaConfig::default()
            .with_k(2)
            .with_alpha(3)
            .assert_valid();
    }
}
