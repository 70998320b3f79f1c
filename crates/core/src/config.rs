//! MPIL configuration.

use std::fmt;

use mpil_id::IdSpace;

/// Error returned when an [`MpilConfig`] is inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_flows` must be at least 1 — the initial flow itself consumes
    /// one unit of quota at the originator.
    ZeroMaxFlows,
    /// `num_replicas` (per-flow replicas) must be at least 1.
    ZeroReplicas,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroMaxFlows => write!(f, "max_flows must be >= 1"),
            ConfigError::ZeroReplicas => write!(f, "num_replicas must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How a node chooses forwarding targets when it may use more than one.
///
/// The paper describes both readings: Figure 5's pseudo-code forwards to
/// the neighbors **tied** at the best metric value, while the Section 4
/// prose says a node "forwards the lookup to the *best few* peers", and
/// Table 3's realized flow counts (~9 of a budget of 10) are only
/// reachable when nodes fan out beyond exact ties. Both are provided;
/// the `split_policy` ablation bench quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitPolicy {
    /// Forward only to neighbors tied at the single best metric value
    /// (Figure 5's literal pseudo-code).
    MetricTies,
    /// Forward to the best neighbors by metric, up to the remaining flow
    /// budget (the "best few peers" reading; reproduces Table 3's
    /// near-budget flow counts).
    TopK,
}

/// Which per-neighbor closeness metric routing maximizes.
///
/// Section 4.2 argues the common-digit metric "distinguishes neighbors
/// better" than prefix or suffix matching on arbitrary overlays (the
/// probability that two random IDs share *no* common digit position is
/// (3/4)^80 ≈ 10^-10, versus 3/4 for sharing no prefix digit). The
/// `ablation_metric` bench measures what that buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingMetric {
    /// Digits matching at the same positions (MPIL's metric).
    CommonDigits,
    /// Shared-prefix length (Pastry-style).
    PrefixMatch,
    /// Shared-suffix length (Tapestry-style).
    SuffixMatch,
}

/// MPIL algorithm parameters (Sections 4.3–4.4 of the paper).
///
/// * `max_flows` — the total flow budget a message starts with; the
///   maximum number of concurrent paths an operation may use (the first
///   path counts). Table 3 of the paper shows the *realized* number of
///   flows is usually a little below this budget.
/// * `num_replicas` — per-flow replicas: how many local maxima each flow
///   deposits an object pointer at (insertions) or may pass through
///   before giving up (lookups).
/// * `duplicate_suppression` — "DS" in the paper: when enabled, a node
///   silently discards any message (by message ID) it has already
///   processed. The paper enables DS for all static-overlay experiments
///   and evaluates both settings under perturbation (Figure 11), finding
///   *disabling* DS more robust on flapping overlays.
/// * `split_policy` — see [`SplitPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpilConfig {
    /// The digit width of the identifier space (paper default: base-4).
    pub space: IdSpace,
    /// Total flow budget per operation (`max flows`).
    pub max_flows: u32,
    /// Per-flow replicas (`num replicas`).
    pub num_replicas: u32,
    /// Duplicate suppression (DS).
    pub duplicate_suppression: bool,
    /// Forwarding fan-out rule.
    pub split_policy: SplitPolicy,
    /// The closeness metric to maximize (MPIL: common digits).
    pub metric: RoutingMetric,
}

impl Default for MpilConfig {
    /// The configuration of the paper's MSPastry comparison (Section 6.2):
    /// 10 max flows, 5 per-flow replicas, base-4 digits, DS enabled.
    fn default() -> Self {
        MpilConfig {
            space: IdSpace::base4(),
            max_flows: 10,
            num_replicas: 5,
            duplicate_suppression: true,
            split_policy: SplitPolicy::TopK,
            metric: RoutingMetric::CommonDigits,
        }
    }
}

impl MpilConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `max_flows` or `num_replicas` is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_flows == 0 {
            return Err(ConfigError::ZeroMaxFlows);
        }
        if self.num_replicas == 0 {
            return Err(ConfigError::ZeroReplicas);
        }
        Ok(())
    }

    /// Sets the flow budget.
    pub fn with_max_flows(mut self, max_flows: u32) -> Self {
        self.max_flows = max_flows;
        self
    }

    /// Sets the per-flow replica count.
    pub fn with_num_replicas(mut self, num_replicas: u32) -> Self {
        self.num_replicas = num_replicas;
        self
    }

    /// Enables or disables duplicate suppression.
    pub fn with_duplicate_suppression(mut self, ds: bool) -> Self {
        self.duplicate_suppression = ds;
        self
    }

    /// Sets the identifier space.
    pub fn with_space(mut self, space: IdSpace) -> Self {
        self.space = space;
        self
    }

    /// Sets the forwarding fan-out rule.
    pub fn with_split_policy(mut self, split_policy: SplitPolicy) -> Self {
        self.split_policy = split_policy;
        self
    }

    /// Sets the closeness metric (for the Section 4.2 ablation).
    pub fn with_metric(mut self, metric: RoutingMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Upper bound on replicas one insertion can create:
    /// `max_flows × num_replicas` (Section 4.4).
    pub fn replica_bound(&self) -> u64 {
        u64::from(self.max_flows) * u64::from(self.num_replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_section_6_2() {
        let c = MpilConfig::default();
        assert_eq!(c.max_flows, 10);
        assert_eq!(c.num_replicas, 5);
        assert!(c.duplicate_suppression);
        assert_eq!(c.space, IdSpace::base4());
        assert_eq!(c.split_policy, SplitPolicy::TopK);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn split_policy_builder() {
        let c = MpilConfig::default().with_split_policy(SplitPolicy::MetricTies);
        assert_eq!(c.split_policy, SplitPolicy::MetricTies);
    }

    #[test]
    fn metric_builder_and_default() {
        assert_eq!(MpilConfig::default().metric, RoutingMetric::CommonDigits);
        let c = MpilConfig::default().with_metric(RoutingMetric::PrefixMatch);
        assert_eq!(c.metric, RoutingMetric::PrefixMatch);
    }

    #[test]
    fn builders_compose() {
        let c = MpilConfig::default()
            .with_max_flows(30)
            .with_num_replicas(5)
            .with_duplicate_suppression(false)
            .with_space(IdSpace::base16());
        assert_eq!(c.max_flows, 30);
        assert_eq!(c.num_replicas, 5);
        assert!(!c.duplicate_suppression);
        assert_eq!(c.space, IdSpace::base16());
        assert_eq!(c.replica_bound(), 150);
    }

    #[test]
    fn validation_rejects_zeros() {
        assert_eq!(
            MpilConfig::default().with_max_flows(0).validate(),
            Err(ConfigError::ZeroMaxFlows)
        );
        assert_eq!(
            MpilConfig::default().with_num_replicas(0).validate(),
            Err(ConfigError::ZeroReplicas)
        );
    }

    #[test]
    fn errors_display() {
        assert!(ConfigError::ZeroMaxFlows.to_string().contains("max_flows"));
        assert!(ConfigError::ZeroReplicas
            .to_string()
            .contains("num_replicas"));
    }
}
