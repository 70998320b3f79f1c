//! Message latency models.

use mpil_overlay::transit_stub::TransitStub;
use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::SimDuration;

/// Assigns a one-way latency to each message.
pub trait LatencyModel: Send + Sync {
    /// Latency of a message from `from` to `to`. The RNG is the
    /// simulation's deterministic RNG; models may use it for jitter.
    fn latency(&self, from: NodeIdx, to: NodeIdx, rng: &mut SmallRng) -> SimDuration;
}

/// The same fixed latency for every message.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency(pub SimDuration);

impl LatencyModel for ConstantLatency {
    fn latency(&self, _from: NodeIdx, _to: NodeIdx, _rng: &mut SmallRng) -> SimDuration {
        self.0
    }
}

/// Uniformly random latency in `[min, max]`.
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency {
    /// Minimum latency.
    pub min: SimDuration,
    /// Maximum latency.
    pub max: SimDuration,
}

impl UniformLatency {
    /// Creates a uniform model.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "min latency exceeds max");
        UniformLatency { min, max }
    }
}

impl LatencyModel for UniformLatency {
    fn latency(&self, _from: NodeIdx, _to: NodeIdx, rng: &mut SmallRng) -> SimDuration {
        let lo = self.min.as_micros();
        let hi = self.max.as_micros();
        SimDuration::from_micros(rng.gen_range(lo..=hi))
    }
}

/// Shortest-path latencies over a GT-ITM-style transit-stub hierarchy —
/// the underlying Internet topology of the paper's packet-level
/// simulations (Section 6.2).
#[derive(Debug, Clone)]
pub struct TransitStubLatency {
    ts: TransitStub,
    jitter_fraction: f64,
}

impl TransitStubLatency {
    /// Wraps a generated transit-stub topology. `jitter_fraction` adds
    /// uniform multiplicative jitter (e.g. `0.1` for ±10%); pass `0.0`
    /// for deterministic latencies.
    ///
    /// # Panics
    ///
    /// Panics if `jitter_fraction` is negative or ≥ 1.
    pub fn new(ts: TransitStub, jitter_fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&jitter_fraction),
            "jitter fraction must be in [0, 1)"
        );
        TransitStubLatency {
            ts,
            jitter_fraction,
        }
    }

    /// The wrapped topology.
    pub fn transit_stub(&self) -> &TransitStub {
        &self.ts
    }
}

impl LatencyModel for TransitStubLatency {
    fn latency(&self, from: NodeIdx, to: NodeIdx, rng: &mut SmallRng) -> SimDuration {
        let base = u64::from(self.ts.latency_us(from, to));
        if self.jitter_fraction == 0.0 || base == 0 {
            return SimDuration::from_micros(base.max(1));
        }
        let spread = (base as f64 * self.jitter_fraction) as u64;
        let lo = base.saturating_sub(spread);
        let hi = base + spread;
        SimDuration::from_micros(rng.gen_range(lo..=hi).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpil_overlay::transit_stub;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn constant_is_constant() {
        let m = ConstantLatency(SimDuration::from_millis(25));
        let mut r = rng();
        for i in 0..5u32 {
            assert_eq!(
                m.latency(NodeIdx::new(i), NodeIdx::new(i + 1), &mut r),
                SimDuration::from_millis(25)
            );
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let m = UniformLatency::new(SimDuration::from_millis(10), SimDuration::from_millis(20));
        let mut r = rng();
        for _ in 0..100 {
            let l = m.latency(NodeIdx::new(0), NodeIdx::new(1), &mut r);
            assert!(l >= SimDuration::from_millis(10));
            assert!(l <= SimDuration::from_millis(20));
        }
    }

    #[test]
    #[should_panic(expected = "min latency exceeds max")]
    fn uniform_rejects_inverted_bounds() {
        let _ = UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(10));
    }

    #[test]
    fn transit_stub_latency_matches_topology() {
        let mut r = rng();
        let ts = transit_stub::generate(20, &mut r).unwrap();
        let expect = u64::from(ts.latency_us(NodeIdx::new(0), NodeIdx::new(1)));
        let m = TransitStubLatency::new(ts, 0.0);
        let got = m.latency(NodeIdx::new(0), NodeIdx::new(1), &mut r);
        assert_eq!(got, SimDuration::from_micros(expect.max(1)));
    }

    #[test]
    fn jitter_stays_within_fraction() {
        let mut r = rng();
        let ts = transit_stub::generate(20, &mut r).unwrap();
        let base = u64::from(ts.latency_us(NodeIdx::new(2), NodeIdx::new(3)));
        let m = TransitStubLatency::new(ts, 0.1);
        for _ in 0..50 {
            let l = m
                .latency(NodeIdx::new(2), NodeIdx::new(3), &mut r)
                .as_micros();
            assert!(l as f64 >= base as f64 * 0.89);
            assert!(l as f64 <= base as f64 * 1.11);
        }
    }
}
