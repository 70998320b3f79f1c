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
    /// `foaf_fanout` active neighbors with a small TTL, deduplicated
    /// per lookup, retried in rounds like the tree query.
    Foaf,
}

impl LookupStrategy {
    /// Short label used in engine legends
    /// ("k-walk" / "ring" / "plumtree" / "foaf").
    pub fn label(&self) -> &'static str {
        match self {
            LookupStrategy::KRandomWalk => "k-walk",
            LookupStrategy::ExpandingRing => "ring",
            LookupStrategy::Plumtree => "plumtree",
            LookupStrategy::Foaf => "foaf",
        }
    }
}

/// Knobs of the two-layer epidemic stack ([`crate::EpidemicSim`]):
/// HyParView membership plus Plumtree dissemination.
///
/// Defaults follow the HyParView/Plumtree papers scaled to the suite's
/// workloads: a small symmetric active view (the tree rides on it), a
/// passive view a few times larger (the healing reservoir), shuffles
/// sized so one exchange fits the inline payload buffer, and shallow
/// retried queries — announcements already planted the pointer nearly
/// everywhere, so lookups only need to reach one live holder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpidemicConfig {
    /// Bound on the active view (symmetric links; eager/lazy Plumtree
    /// peers are drawn from it).
    pub active_size: usize,
    /// Bound on the passive view (reactive-replacement candidates).
    pub passive_size: usize,
    /// Active-view entries included in a shuffle.
    pub shuffle_active: usize,
    /// Passive-view entries included in a shuffle.
    pub shuffle_passive: usize,
    /// Period of each node's shuffle/repair timer.
    pub gossip_period: SimDuration,
    /// How long a node waits for a shuffle or neighbor reply before
    /// counting the exchange as failed.
    pub exchange_timeout: SimDuration,
    /// Failed exchanges with the same active peer before it is evicted
    /// and reactively replaced from the passive view.
    pub suspicion_limit: u32,
    /// Active random-walk length of FORWARD-JOIN propagation.
    pub arwl: u32,
    /// Remaining FORWARD-JOIN TTL at which the joiner is also captured
    /// into passive views.
    pub prwl: u32,
    /// How long a node waits for the eager copy of an announcement it
    /// heard an IHAVE for before sending GRAFT (lazy tree repair).
    pub graft_timeout: SimDuration,
    /// Forward depth of one [`LookupStrategy::Plumtree`] query round.
    pub query_ttl: u32,
    /// Hop budget of one [`LookupStrategy::Foaf`] walk.
    pub foaf_ttl: u32,
    /// Fan-out per hop of a FOAF walk.
    pub foaf_fanout: usize,
    /// Pause between query retry rounds (covers one round trip).
    pub query_round_gap: SimDuration,
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
            shuffle_active: 3,
            shuffle_passive: 3,
            gossip_period: SimDuration::from_secs(5),
            exchange_timeout: SimDuration::from_secs(2),
            suspicion_limit: 2,
            arwl: 5,
            prwl: 2,
            graft_timeout: SimDuration::from_millis(500),
            query_ttl: 2,
            foaf_ttl: 3,
            foaf_fanout: 3,
            query_round_gap: SimDuration::from_secs(2),
            strategy: LookupStrategy::Plumtree,
        }
    }
}

impl EpidemicConfig {
    /// Sets the active and passive view bounds, clamping the shuffle
    /// contributions to stay legal.
    pub fn with_views(mut self, active: usize, passive: usize) -> Self {
        self.active_size = active;
        self.passive_size = passive;
        self.shuffle_active = self.shuffle_active.min(active.max(1));
        self.shuffle_passive = self.shuffle_passive.min(passive.max(1));
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
    /// Panics on zero view bounds, oversized shuffle contributions, or
    /// zero TTLs/timeouts.
    pub fn assert_valid(&self) {
        assert!(self.active_size >= 1, "active_size must be at least 1");
        assert!(
            self.passive_size >= self.active_size,
            "passive_size must be at least active_size"
        );
        assert!(
            (1..=self.active_size).contains(&self.shuffle_active),
            "shuffle_active must be in 1..=active_size"
        );
        assert!(
            (1..=self.passive_size).contains(&self.shuffle_passive),
            "shuffle_passive must be in 1..=passive_size"
        );
        assert!(self.gossip_period > SimDuration::ZERO, "gossip_period");
        assert!(
            self.exchange_timeout > SimDuration::ZERO,
            "exchange_timeout"
        );
        assert!(self.suspicion_limit >= 1, "suspicion_limit");
        assert!(self.arwl >= 1, "arwl");
        assert!(self.prwl <= self.arwl, "prwl must not exceed arwl");
        assert!(self.graft_timeout > SimDuration::ZERO, "graft_timeout");
        assert!(self.query_ttl >= 1, "query_ttl");
        assert!(self.foaf_ttl >= 1, "foaf_ttl");
        assert!(self.foaf_fanout >= 1, "foaf_fanout");
        assert!(self.query_round_gap > SimDuration::ZERO, "query_round_gap");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // self + shuffle_active + shuffle_passive must not spill the
        // pooled payload buffer in the steady state.
        let c = EpidemicConfig::default();
        assert!(1 + c.shuffle_active + c.shuffle_passive <= mpil_sim::PAYLOAD_INLINE);
    }

    #[test]
    fn with_views_keeps_shuffle_contributions_legal() {
        let c = EpidemicConfig::default().with_views(2, 4);
        c.assert_valid();
        assert_eq!(c.active_size, 2);
        assert!(c.shuffle_active <= 2);
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

    #[test]
    fn strategy_labels() {
        assert_eq!(LookupStrategy::KRandomWalk.label(), "k-walk");
        assert_eq!(LookupStrategy::ExpandingRing.label(), "ring");
        assert_eq!(LookupStrategy::Plumtree.label(), "plumtree");
        assert_eq!(LookupStrategy::Foaf.label(), "foaf");
    }
}
