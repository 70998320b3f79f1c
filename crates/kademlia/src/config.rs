//! Kademlia configuration.

use mpil_sim::SimDuration;

/// Kademlia parameters (Maymounkov & Mazières, IPTPS 2002).
///
/// Defaults scale the original paper's wide-area values down to the
/// simulation sizes used in the MPIL experiments: `k = 8` (bucket size
/// and replication), `α = 3` (lookup parallelism), a 3 s RPC timeout
/// matching the probe timeout of the other baselines, and a 90 s bucket
/// refresh matching Pastry's routing-table probe period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KademliaConfig {
    /// Bucket capacity and storage replication factor `k`.
    pub k: usize,
    /// Lookup parallelism `α`: RPCs kept in flight per iterative query.
    pub alpha: usize,
    /// RPC timeout; an unanswered query marks the peer failed for the
    /// operation and evicts it from the routing table (Kademlia does not
    /// retransmit — its redundancy is `α`-way parallelism).
    pub rpc_timeout: SimDuration,
    /// Period of bucket refresh; one random bucket is refreshed per
    /// firing with an iterative query for a random ID in its range.
    pub bucket_refresh_period: SimDuration,
}

impl Default for KademliaConfig {
    fn default() -> Self {
        KademliaConfig {
            k: 8,
            alpha: 3,
            rpc_timeout: SimDuration::from_secs(3),
            bucket_refresh_period: SimDuration::from_secs(90),
        }
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
    /// Panics if `k` or `alpha` is zero, `alpha > k`, or a period is
    /// zero.
    pub fn assert_valid(&self) {
        assert!(self.k >= 1, "k must be >= 1");
        assert!(self.alpha >= 1, "alpha must be >= 1");
        assert!(self.alpha <= self.k, "alpha cannot exceed k");
        assert!(!self.rpc_timeout.is_zero());
        assert!(!self.bucket_refresh_period.is_zero());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let c = KademliaConfig::default();
        c.assert_valid();
        assert_eq!(c.k, 8);
        assert_eq!(c.alpha, 3);
        assert_eq!(c.rpc_timeout, SimDuration::from_secs(3));
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
