//! Streaming statistics for experiment measurements.

/// Welford-style running mean/variance plus min/max.
///
/// ```
/// use mpil_workload::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), 2.0); // population std dev
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub(crate) fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Exact percentiles over a stored sample set (for latency/hop reports).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.samples[rank.saturating_sub(1).min(n - 1)])
    }

    /// The median.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Merges another sample set into this one (cross-worker / cross-
    /// phase aggregation: the percentile of the merged set is computed
    /// over the union of samples, which no summary-statistic merge can
    /// reproduce).
    pub fn merge(&mut self, other: &Percentiles) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

impl Extend<f64> for Percentiles {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_sane() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn mean_and_variance_match_closed_form() {
        let s: RunningStats = (1..=100).map(f64::from).collect();
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // Population variance of 1..=100 = (n^2-1)/12 = 833.25
        assert!((s.variance() - 833.25).abs() < 1e-9);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a: RunningStats = (1..=50).map(f64::from).collect();
        let b: RunningStats = (51..=100).map(f64::from).collect();
        a.merge(&b);
        let all: RunningStats = (1..=100).map(f64::from).collect();
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [3.0, 5.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        p.extend((1..=10).map(f64::from));
        assert_eq!(p.percentile(50.0), Some(5.0));
        assert_eq!(p.percentile(90.0), Some(9.0));
        assert_eq!(p.percentile(100.0), Some(10.0));
        assert_eq!(p.percentile(0.0), Some(1.0));
        assert_eq!(p.median(), Some(5.0));
    }

    #[test]
    fn percentiles_merge_equals_union() {
        let mut a = Percentiles::new();
        a.extend((1..=50).map(f64::from));
        let mut b = Percentiles::new();
        b.extend((51..=100).map(f64::from));
        // Sorting `a` first must not poison the merge: the union is
        // re-sorted lazily.
        assert_eq!(a.percentile(100.0), Some(50.0));
        a.merge(&b);
        assert_eq!(a.len(), 100);
        let mut union = Percentiles::new();
        union.extend((1..=100).map(f64::from));
        for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(a.percentile(p), union.percentile(p), "p{p}");
        }
        // Merging an empty set is the identity.
        let before = a.clone();
        a.merge(&Percentiles::new());
        assert_eq!(a, before);
    }

    #[test]
    fn percentiles_empty_is_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.median(), None);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        let mut p = Percentiles::new();
        p.push(1.0);
        let _ = p.percentile(101.0);
    }
}
