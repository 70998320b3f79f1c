//! Configuration for the epidemic engine.

use mpil_sim::SimDuration;

/// How a lookup spreads through the HyParView active graph.
///
/// [`LookupStrategy::Plumtree`] and [`LookupStrategy::Foaf`] ride on the
/// Plumtree broadcast that plants the pointer at nearly every node;
/// [`LookupStrategy::KRandomWalk`] and [`LookupStrategy::ExpandingRing`]
/// search for the few replicas that insert walks leave behind (their
/// dials are constants in [`crate::epidemic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupStrategy {
    /// Independent random walks, each with a hop budget (Lv et al.'s
    /// k-random-walk search; Ferretti's local-knowledge walks are the
    /// same mechanism over gossip views). Launched once, not retried.
    KRandomWalk,
    /// Gnutella-style flooding in rounds of doubling scope: flood with
    /// TTL 1, wait, flood with TTL 2, 4, ... up to a cap, stopping at
    /// the first positive reply.
    ExpandingRing,
    /// Shallow TTL-bounded queries down the Plumtree spanning tree in
    /// retried rounds: announcements already pushed the pointer nearly
    /// everywhere, so a round costs about one message per active link
    /// instead of a flood.
    Plumtree,
    /// FOAF-style bounded-fanout walks (ADR-007): each hop forwards to
    /// `FOAF_FANOUT` active neighbors with a small TTL, deduplicated
    /// per lookup, retried in rounds like the tree query.
    Foaf,
}

/// The dials of the two-layer epidemic stack ([`crate::EpidemicSim`])
/// that its drivers turn: HyParView's view bounds, the gossip period and
/// the lookup strategy. Every other HyParView/Plumtree parameter (shuffle
/// sizes, timeouts, walk lengths, query TTLs) is a constant in
/// [`crate::epidemic`] beside the handler that reads it.
///
/// Defaults follow the HyParView/Plumtree papers scaled to the suite's
/// workloads: a small symmetric active view (the tree rides on it) and a
/// passive view a few times larger (the healing reservoir).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpidemicConfig {
    /// Bound on the active view (symmetric links; eager/lazy Plumtree
    /// peers are drawn from it).
    pub active_size: usize,
    /// Bound on the passive view (reactive-replacement candidates).
    pub passive_size: usize,
    /// Period of each node's shuffle/repair timer.
    pub gossip_period: SimDuration,
    /// Which lookup strategy [`crate::EpidemicSim::issue_lookup`] uses;
    /// under the walk and ring strategies inserts are replication walks
    /// instead of broadcasts.
    pub strategy: LookupStrategy,
}

impl Default for EpidemicConfig {
    fn default() -> Self {
        EpidemicConfig {
            active_size: 5,
            passive_size: 24,
            gossip_period: SimDuration::from_secs(5),
            strategy: LookupStrategy::Plumtree,
        }
    }
}

impl EpidemicConfig {
    /// Sets the active and passive view bounds (a shuffle carries at
    /// most that many entries of each).
    pub fn with_views(mut self, active: usize, passive: usize) -> Self {
        self.active_size = active;
        self.passive_size = passive;
        self
    }

    /// Sets the lookup strategy.
    pub fn with_strategy(mut self, strategy: LookupStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Panics unless the configuration is internally consistent.
    ///
    /// # Panics
    ///
    /// Panics on a zero active view, a passive view smaller than the
    /// active one, or a zero gossip period.
    pub fn assert_valid(&self) {
        assert!(self.active_size >= 1, "active_size must be at least 1");
        assert!(
            self.passive_size >= self.active_size,
            "passive_size must be at least active_size"
        );
        assert!(self.gossip_period > SimDuration::ZERO, "gossip_period");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epidemic::{SHUFFLE_ACTIVE, SHUFFLE_PASSIVE};

    #[test]
    fn epidemic_defaults_are_valid() {
        for strategy in [
            LookupStrategy::Plumtree,
            LookupStrategy::Foaf,
            LookupStrategy::KRandomWalk,
            LookupStrategy::ExpandingRing,
        ] {
            EpidemicConfig::default()
                .with_strategy(strategy)
                .assert_valid();
        }
    }

    #[test]
    fn epidemic_shuffle_exchange_fits_the_inline_payload() {
        // The default views take whole shuffle samples, and self plus
        // those fit the pooled payload buffer (the `const` assertion
        // beside the constants), so the steady state never spills.
        let c = EpidemicConfig::default();
        assert!(SHUFFLE_ACTIVE <= c.active_size && SHUFFLE_PASSIVE <= c.passive_size);
    }

    #[test]
    fn with_views_keeps_shuffle_contributions_legal() {
        // Views below the shuffle sizes stay legal: a shuffle then
        // samples the smaller bound.
        let c = EpidemicConfig::default().with_views(2, 2);
        c.assert_valid();
        assert_eq!((c.active_size, c.passive_size), (2, 2));
        assert!(c.active_size < SHUFFLE_ACTIVE && c.passive_size < SHUFFLE_PASSIVE);
    }

    #[test]
    #[should_panic(expected = "active_size")]
    fn zero_view_is_rejected() {
        let c = EpidemicConfig {
            active_size: 0,
            ..EpidemicConfig::default()
        };
        c.assert_valid();
    }
}
