//! Per-operation reports from the MPIL engines.

/// What one insertion did (the quantities Figure 9 of the paper plots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertReport {
    /// Distinct nodes storing the object pointer after this insertion.
    pub replicas: u32,
    /// Total messages sent (each transmission to one neighbor counts 1).
    pub messages: u64,
    /// Times a node received this insertion's message again after already
    /// having received it once.
    pub duplicates: u64,
    /// Flows actually created (Σ `m − given_flows` over forwarding steps);
    /// bounded by the configured `max_flows`.
    pub flows_created: u32,
    /// Longest hop count any copy reached.
    pub max_hops: u32,
}

/// What one lookup did (Figure 10 / Tables 1–3 quantities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LookupReport {
    /// Did any flow find a node storing the object?
    pub success: bool,
    /// Hop count of the first (fewest-hop) successful reply.
    pub first_reply_hops: Option<u32>,
    /// Total messages sent over the lookup's whole lifetime.
    pub messages: u64,
    /// Messages sent up to the moment the first reply was generated.
    pub messages_until_first_reply: u64,
    /// Duplicate receptions, as for insertions.
    pub duplicates: u64,
    /// Flows actually created.
    pub flows_created: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_empty() {
        let i = InsertReport::default();
        assert_eq!(i.replicas, 0);
        assert_eq!(i.messages, 0);
        let l = LookupReport::default();
        assert!(!l.success);
        assert_eq!(l.first_reply_hops, None);
    }
}
