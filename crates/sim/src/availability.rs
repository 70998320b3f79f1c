//! Node availability models, including the paper's periodic flapping.

use mpil_overlay::NodeIdx;
use rand::Rng;

use crate::rng::unit_f64;
use crate::time::{SimDuration, SimTime};

/// Decides whether a node is responsive at a given instant.
///
/// The simulation kernel consults this at message-arrival time: an
/// offline (perturbed) node silently loses the message, which is exactly
/// how an unresponsive host looks to its peers.
pub trait Availability: Send + Sync {
    /// Is `node` online (responsive) at instant `at`?
    fn is_online(&self, node: NodeIdx, at: SimTime) -> bool;
}

/// Every node is always online. Used for the static-overlay experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysOn;

impl Availability for AlwaysOn {
    fn is_online(&self, _node: NodeIdx, _at: SimTime) -> bool {
        true
    }
}

/// Parameters of the periodic flapping model (paper, Section 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlappingConfig {
    /// Length of the idle (online) part of each period.
    pub idle: SimDuration,
    /// Length of the offline part of each period.
    pub offline: SimDuration,
    /// Probability that a node actually goes offline at the start of each
    /// offline part ("flapping probability", the x-axis of Figures 1/11).
    pub probability: f64,
    /// Instant at which flapping begins; all nodes are online before it.
    pub start: SimTime,
}

impl FlappingConfig {
    /// Convenience constructor from the paper's `idle:offline` notation in
    /// seconds, e.g. `FlappingConfig::idle_offline_secs(30, 30, 0.5)`.
    pub fn idle_offline_secs(idle_s: u64, offline_s: u64, probability: f64) -> Self {
        FlappingConfig {
            idle: SimDuration::from_secs(idle_s),
            offline: SimDuration::from_secs(offline_s),
            probability,
            start: SimTime::ZERO,
        }
    }

    /// The full flapping period (idle + offline).
    pub fn period(&self) -> SimDuration {
        self.idle + self.offline
    }

    /// Returns a copy with flapping starting at `start`.
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }
}

/// The paper's perturbation model: every node flaps periodically.
///
/// Each node draws a uniformly random phase for its first period. Within
/// each period, the node is online for `idle`, then — with probability
/// `probability`, decided by a fresh per-period coin — offline for
/// `offline` (otherwise it stays online through the period).
///
/// Individual nodes can be exempted (the experiment's origin node, which
/// issues the inserts and lookups, is never perturbed).
#[derive(Debug, Clone)]
pub struct Flapping {
    config: FlappingConfig,
    /// Per-node phase in µs, with [`EXEMPT_BIT`] folded into the top
    /// bit. One array — and so one cache line — per `is_online` call,
    /// which the kernel makes on every delivery.
    phase_us: Vec<u64>,
    coin_seed: u64,
}

/// Top bit of a phase word: the node is exempt (always online). Phases
/// are bounded by the flapping period, far below this bit.
const EXEMPT_BIT: u64 = 1 << 63;

impl Flapping {
    /// Creates a flapping schedule for `n` nodes.
    ///
    /// `rng` draws the per-node phases; `coin_seed` seeds the per-period
    /// offline coins. Both are deterministic inputs.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not within `[0, 1]` or the period is
    /// zero.
    pub fn new<R: Rng + ?Sized>(
        config: FlappingConfig,
        n: usize,
        coin_seed: u64,
        rng: &mut R,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.probability),
            "flapping probability must be in [0,1]"
        );
        let period = config.period().as_micros();
        assert!(period > 0, "flapping period must be positive");
        assert!(
            period < EXEMPT_BIT,
            "flapping period overflows phase encoding"
        );
        let phase_us = (0..n).map(|_| rng.gen_range(0..period)).collect();
        Flapping {
            config,
            phase_us,
            coin_seed,
        }
    }

    /// Marks `node` as exempt: it is always online.
    pub fn exempt(&mut self, node: NodeIdx) {
        self.phase_us[node.index()] |= EXEMPT_BIT;
    }

    /// The model's configuration.
    pub fn config(&self) -> &FlappingConfig {
        &self.config
    }
}

impl Availability for Flapping {
    fn is_online(&self, node: NodeIdx, at: SimTime) -> bool {
        let phase = self.phase_us[node.index()];
        if phase & EXEMPT_BIT != 0 {
            return true;
        }
        if at < self.config.start {
            return true;
        }
        let since = at.duration_since(self.config.start).as_micros();
        let local = since + phase;
        let period = self.config.period().as_micros();
        let period_idx = local / period;
        let pos = local % period;
        if pos < self.config.idle.as_micros() {
            return true;
        }
        // Offline segment: flip this period's coin.
        let coin = unit_f64(self.coin_seed, node.index() as u64, period_idx);
        coin >= self.config.probability
    }
}

/// Trace-driven churn: each node has explicit online sessions.
///
/// This extends the paper's model toward the measured traces (Overnet,
/// Gnutella) its related-work section cites: alternating online/offline
/// sessions with exponentially distributed lengths.
#[derive(Debug, Clone)]
pub struct TraceChurn {
    /// Sorted online intervals per node: `(start, end)` half-open.
    sessions: Vec<Vec<(SimTime, SimTime)>>,
}

impl TraceChurn {
    /// Builds a trace from explicit per-node session lists.
    ///
    /// # Panics
    ///
    /// Panics if any node's sessions are unsorted or overlapping.
    pub fn from_sessions(sessions: Vec<Vec<(SimTime, SimTime)>>) -> Self {
        for (node, list) in sessions.iter().enumerate() {
            for w in list.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "node {node}: sessions must be sorted and disjoint"
                );
            }
            for &(s, e) in list {
                assert!(s <= e, "node {node}: session ends before it starts");
            }
        }
        TraceChurn { sessions }
    }
}

impl Availability for TraceChurn {
    fn is_online(&self, node: NodeIdx, at: SimTime) -> bool {
        let list = &self.sessions[node.index()];
        // Binary search for the last session starting at or before `at`.
        match list.binary_search_by(|&(s, _)| s.cmp(&at)) {
            Ok(_) => true, // session starts exactly at `at`
            Err(0) => false,
            Err(i) => at < list[i - 1].1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn node(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    #[test]
    fn always_on_is_always_on() {
        assert!(AlwaysOn.is_online(node(0), SimTime::ZERO));
        assert!(AlwaysOn.is_online(node(99), SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn probability_zero_never_goes_offline() {
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = FlappingConfig::idle_offline_secs(30, 30, 0.0);
        let f = Flapping::new(cfg, 10, 7, &mut rng);
        for i in 0..10u32 {
            for s in (0..600).step_by(7) {
                assert!(f.is_online(node(i), SimTime::from_secs(s)));
            }
        }
    }

    #[test]
    fn probability_one_is_offline_every_offline_segment() {
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = FlappingConfig::idle_offline_secs(30, 30, 1.0);
        let f = Flapping::new(cfg, 4, 9, &mut rng);
        // Over a long horizon each node must be offline about half the
        // time (phase shifts where, not how much).
        for i in 0..4u32 {
            let mut online = 0;
            let mut total = 0;
            for s in 0..2400 {
                total += 1;
                if f.is_online(node(i), SimTime::from_secs(s)) {
                    online += 1;
                }
            }
            let frac = online as f64 / total as f64;
            assert!((frac - 0.5).abs() < 0.05, "node {i}: online frac {frac}");
        }
    }

    #[test]
    fn offline_fraction_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = FlappingConfig::idle_offline_secs(45, 15, 0.6);
        let f = Flapping::new(cfg, 50, 11, &mut rng);
        let mut offline = 0u32;
        let mut total = 0u32;
        for i in 0..50u32 {
            for s in (0..6000).step_by(3) {
                total += 1;
                if !f.is_online(node(i), SimTime::from_secs(s)) {
                    offline += 1;
                }
            }
        }
        // p · offline / period = 0.6 · 15 / 60.
        let frac = f64::from(offline) / f64::from(total);
        assert!(
            (frac - 0.15).abs() < 0.02,
            "measured offline fraction {frac}, expected 0.15"
        );
    }

    #[test]
    fn exempt_nodes_never_flap() {
        let mut rng = SmallRng::seed_from_u64(4);
        let cfg = FlappingConfig::idle_offline_secs(1, 1, 1.0);
        let mut f = Flapping::new(cfg, 3, 13, &mut rng);
        f.exempt(node(1));
        for s in 0..100 {
            assert!(f.is_online(node(1), SimTime::from_secs(s)));
        }
        // Non-exempt nodes must flap at p=1.
        let offline_any = (0..100).any(|s| !f.is_online(node(0), SimTime::from_secs(s)));
        assert!(offline_any);
    }

    #[test]
    fn before_start_everyone_is_online() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = FlappingConfig::idle_offline_secs(1, 1, 1.0).starting_at(SimTime::from_secs(100));
        let f = Flapping::new(cfg, 5, 17, &mut rng);
        for i in 0..5u32 {
            for s in 0..100 {
                assert!(f.is_online(node(i), SimTime::from_secs(s)));
            }
        }
    }

    #[test]
    fn idle_prefix_of_each_period_is_online() {
        // With phase known to be < period, check the structure: within any
        // period, the first `idle` is online.
        let mut rng = SmallRng::seed_from_u64(6);
        let cfg = FlappingConfig::idle_offline_secs(45, 15, 1.0);
        let f = Flapping::new(cfg, 1, 19, &mut rng);
        let phase = f.phase_us[0];
        let period = cfg.period().as_micros();
        // Find the start of a period in absolute time: local = t + phase.
        let period_start = 2 * period - phase; // local time = 2*period
        for offset in [0u64, 1_000_000, 44_000_000] {
            let t = SimTime::from_micros(period_start + offset);
            assert!(f.is_online(node(0), t), "offset {offset} should be idle");
        }
        for offset in [45_000_001u64, 50_000_000, 59_999_999] {
            let t = SimTime::from_micros(period_start + offset);
            assert!(
                !f.is_online(node(0), t),
                "offset {offset} should be offline"
            );
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = FlappingConfig::idle_offline_secs(1, 1, 1.5);
        let _ = Flapping::new(cfg, 1, 0, &mut rng);
    }

    #[test]
    fn trace_churn_sessions_answer_queries() {
        let t = TraceChurn::from_sessions(vec![vec![
            (SimTime::from_secs(0), SimTime::from_secs(10)),
            (SimTime::from_secs(20), SimTime::from_secs(30)),
        ]]);
        assert!(t.is_online(node(0), SimTime::from_secs(5)));
        assert!(!t.is_online(node(0), SimTime::from_secs(15)));
        assert!(t.is_online(node(0), SimTime::from_secs(20)));
        assert!(!t.is_online(node(0), SimTime::from_secs(30)));
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn trace_churn_rejects_overlap() {
        let _ = TraceChurn::from_sessions(vec![vec![
            (SimTime::from_secs(0), SimTime::from_secs(10)),
            (SimTime::from_secs(5), SimTime::from_secs(15)),
        ]]);
    }
}
