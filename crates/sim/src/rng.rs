//! Hash-based deterministic randomness.
//!
//! The flapping model needs a fresh coin per (node, period) pair that can
//! be evaluated *at any query time* without replaying a schedule. We
//! derive each coin from a SplitMix64 hash of the seed and coordinates;
//! the result is stable, O(1), and independent of query order.

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes a seed with two coordinates (e.g. node index and period index).
pub(crate) fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a ^ splitmix64(b)))
}

/// A uniform f64 in `[0, 1)` derived from `(seed, a, b)`.
pub(crate) fn unit_f64(seed: u64, a: u64, b: u64) -> f64 {
    // 53 high-quality bits -> [0,1).
    (hash3(seed, a, b) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Single-bit input changes flip many output bits.
        let d = (splitmix64(0) ^ splitmix64(1)).count_ones();
        assert!(d > 16, "poor avalanche: {d} bits");
    }

    #[test]
    fn unit_f64_in_range_and_uniform_ish() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = unit_f64(42, i, 7);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn coordinates_are_independent() {
        assert_ne!(hash3(1, 2, 3), hash3(1, 3, 2));
        assert_ne!(hash3(1, 2, 3), hash3(2, 2, 3));
    }
}
