//! Log-bucket latency histogram, medians and quartiles.
//!
//! Values are nanoseconds. Buckets are exact below 128 ns and 1/128 of
//! a power of two wide above, so a percentile is within 0.8 % of the
//! sorted-sample answer at constant memory; the position inside a
//! bucket is interpolated by rank, so two runs that land in the same
//! bucket still report the digits they measured.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB as usize;

/// A histogram of `u64` nanosecond samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// Lower bound and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let shift = idx / SUB - 1;
    ((SUB + idx % SUB) << shift, 1 << shift)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// A histogram of `samples`.
    pub fn of(samples: &[u64]) -> Self {
        let mut h = Histogram::default();
        samples.iter().for_each(|&ns| h.record(ns));
        h
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (nearest rank: the `ceil(p/100·n)`-th
    /// smallest sample), in nanoseconds; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if before + count >= rank {
                let (lo, width) = bucket_range(idx);
                let within = (rank - before) as f64 - 0.5;
                let value = lo as f64 + width as f64 * within / count as f64;
                return Some(value.min(self.max as f64));
            }
            before += count;
        }
        Some(self.max as f64)
    }

    /// Mean of the middle half of the samples (the interquartile mean),
    /// in nanoseconds; `None` when empty.
    ///
    /// The typical latency, where a median would be the usual choice:
    /// the services' latencies come in lumps one poll quantum or timer
    /// tick apart, and a median that sits where two lumps meet jumps a
    /// whole quantum when a few per cent of the requests change lump
    /// (1.9 to 3.0 ms from run to run on `svc-chan-churn`). This moves
    /// by as much as the samples did.
    pub fn mid_mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        // Ranks [lo, hi) of the sorted samples, as fractions of a
        // sample where the quarter points fall inside one.
        let (lo, hi) = (self.total as f64 * 0.25, self.total as f64 * 0.75);
        let (mut before, mut sum) = (0.0f64, 0.0f64);
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let count = f64::from(count);
            let (from, to) = (before.max(lo), (before + count).min(hi));
            if to > from {
                // The bucket's samples are taken as evenly spread over
                // it, so ranks from..to of it average at their midpoint.
                let (start, width) = bucket_range(idx);
                let at = ((from + to) / 2.0 - before) / count;
                let value = (start as f64 + width as f64 * at).min(self.max as f64);
                sum += value * (to - from);
            }
            before += count;
            if before >= hi {
                break;
            }
        }
        Some(sum / (hi - lo))
    }

    /// Samples strictly above the `p`-th percentile's rank.
    pub fn beyond(&self, p: f64) -> u64 {
        self.total - ((p / 100.0 * self.total as f64).ceil() as u64).min(self.total)
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The value of a quantity measured several times in one run: the first
/// quartile of a cost, the third of a rate, never outside what was
/// measured.
///
/// For repetitions of the same deterministic work (a simulated
/// scenario, a set-up) and for the slices of a request stream under a
/// steady load: a change in the program moves every one of them, and
/// the quartile with them. What differs between them is the machine:
/// the shared vCPUs this runs on slow down by up to 1.4x for seconds at
/// a time (see the README), and that only ever makes a repetition or a
/// slice slower. A median follows it whenever it covers half of a run;
/// the quartile on the fast side stays put until it covers three
/// quarters.
pub fn quiet(values: &[f64], lower_is_better: bool) -> Option<f64> {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match quartiles(values) {
        // The exclusive method extrapolates below four values.
        Some([q1, _, q3]) => Some(if lower_is_better { q1 } else { q3 }.clamp(lo, hi)),
        None => values.first().copied(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::svc::mix;

    fn oracle(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn percentiles_match_a_sorted_vector_within_bucket_precision() {
        // Three shapes: tiny exact values, a wide log-uniform spread,
        // and a bimodal "retry plateau" like the churn workload's.
        let shapes: [Box<dyn Fn(u64) -> u64>; 3] = [
            Box::new(|i| mix(i) % 100),
            Box::new(|i| 1 << (mix(i) % 40) | (mix(i + 7) % 1000)),
            Box::new(|i| {
                if mix(i).is_multiple_of(50) {
                    150_000_000 + mix(i) % 3_000_000
                } else {
                    2_000_000 + mix(i) % 900_000
                }
            }),
        ];
        for shape in &shapes {
            let mut samples: Vec<u64> = (0..20_000).map(shape).collect();
            let mut h = Histogram::default();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for p in [0.1, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let want = oracle(&samples, p) as f64;
                let got = h.percentile(p).expect("non-empty");
                let tolerance = want / 128.0 + 1.0;
                assert!(
                    (got - want).abs() <= tolerance,
                    "p{p}: histogram {got} vs sorted {want}"
                );
            }
            assert_eq!(h.len(), 20_000);
            assert_eq!(h.beyond(99.0), 200);
        }
    }

    #[test]
    fn the_mid_mean_is_the_mean_of_the_middle_half() {
        for shape in [0u64, 1] {
            let mut samples: Vec<u64> = (0..10_000u64)
                .map(|i| match shape {
                    0 => 1_000_000 + mix(i) % 9_000_000,
                    // Two lumps a poll quantum apart, 55 % in the first.
                    _ if mix(i) % 100 < 55 => 1_600_000 + mix(i + 3) % 100_000,
                    _ => 3_200_000 + mix(i + 3) % 100_000,
                })
                .collect();
            let h = Histogram::of(&samples);
            samples.sort_unstable();
            let middle = &samples[2500..7500];
            let want = middle.iter().sum::<u64>() as f64 / middle.len() as f64;
            let got = h.mid_mean().expect("non-empty");
            assert!(
                (got - want).abs() <= want / 128.0,
                "shape {shape}: histogram {got} vs sorted {want}"
            );
        }
        assert_eq!(Histogram::default().mid_mean(), None);
        assert_eq!(Histogram::of(&[7]).mid_mean(), Some(7.0));
        // Of 10, 20, 30, 40 the middle half is 20 and 30.
        let four = Histogram::of(&[10, 20, 30, 40]).mid_mean().expect("four");
        assert!((four - 25.0).abs() < 1.0, "{four}");
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expect_lo = 0u64;
        for idx in 0..BUCKETS - 1 {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, expect_lo, "bucket {idx}");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            expect_lo = lo + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn an_empty_histogram_has_no_percentile() {
        assert_eq!(Histogram::default().percentile(50.0), None);
        let h = Histogram::of(&[10, 30, 20]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.percentile(50.0).map(f64::floor), Some(20.0));
    }

    #[test]
    fn quiet_never_leaves_the_sample_range() {
        for len in 1..12u64 {
            for case in 0..50u64 {
                let values: Vec<f64> = (0..len)
                    .map(|i| (mix(case * 100 + i) % 10_000) as f64 / 7.0)
                    .collect();
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for lower in [true, false] {
                    let q = quiet(&values, lower).expect("non-empty");
                    assert!((lo..=hi).contains(&q), "{q} outside {values:?}");
                }
            }
        }
    }

    #[test]
    fn quartiles_match_pythons_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quiet(&ten, true), Some(2.75));
        assert_eq!(quiet(&ten, false), Some(8.25));
        assert_eq!(quiet(&[4.0], true), Some(4.0));
        assert_eq!(quiet(&[], true), None);
        // Two or three values: the quartile would lie outside them.
        assert_eq!(quiet(&[10.0, 20.0], true), Some(10.0));
        assert_eq!(quiet(&[10.0, 20.0], false), Some(20.0));
        assert_eq!(quiet(&[1.0, 10.0], true), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
