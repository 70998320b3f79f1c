//! The Section 5 probability model.

use crate::lgamma::ln_binomial;

/// A degree distribution `P(deg = d)` for the general-topology formula.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeDistribution {
    probs: Vec<(usize, f64)>,
}

impl DegreeDistribution {
    /// Builds a distribution from `(degree, probability)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are negative or do not sum to ~1.
    pub fn new(probs: Vec<(usize, f64)>) -> Self {
        let total: f64 = probs.iter().map(|&(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "degree probabilities sum to {total}, not 1"
        );
        assert!(probs.iter().all(|&(_, p)| p >= 0.0));
        DegreeDistribution { probs }
    }

    /// The empirical degree distribution of a histogram (`hist[d]` =
    /// number of nodes of degree `d`), e.g. from
    /// `mpil_overlay::stats::degree_histogram`.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn from_histogram(hist: &[usize]) -> Self {
        let total: usize = hist.iter().sum();
        assert!(total > 0, "empty degree histogram");
        let probs = hist
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(d, &c)| (d, c as f64 / total as f64))
            .collect();
        DegreeDistribution { probs }
    }

    /// Iterates `(degree, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.probs.iter().copied()
    }
}

/// The analysis model for an `M`-digit base-`2^b` ID space.
///
/// Precomputes the k-common pmf `A`, the exclusive CDF `B`, the inclusive
/// CDF `D`, and — for numerical stability at large exponents — the upper
/// tails `1 − B` and `1 − D` directly as suffix sums.
#[derive(Debug, Clone)]
pub struct AnalysisModel {
    m: usize,
    pmf: Vec<f64>,       // A(k), k = 0..=M
    tail_excl: Vec<f64>, // 1 - B(k) = P(X >= k)
    tail_incl: Vec<f64>, // 1 - D(k) = P(X > k)
}

impl AnalysisModel {
    /// Builds the model for `m` digits with `radix = 2^b` possible digit
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `radix < 2`.
    pub fn new(m: usize, radix: u32) -> Self {
        assert!(m > 0, "need at least one digit");
        assert!(radix >= 2, "radix must be at least 2");
        let q = 1.0 / f64::from(radix);
        let ln_q = q.ln();
        let ln_1q = (1.0 - q).ln();
        let pmf: Vec<f64> = (0..=m)
            .map(|k| {
                (ln_binomial(m as u64, k as u64) + k as f64 * ln_q + (m - k) as f64 * ln_1q).exp()
            })
            .collect();
        // Suffix sums give accurate small tails.
        let mut tail_incl = vec![0.0; m + 2];
        for k in (0..=m).rev() {
            tail_incl[k] = tail_incl[k + 1] + pmf[k];
        }
        // tail_incl[k] currently = P(X >= k); shift for the two views.
        let tail_excl: Vec<f64> = (0..=m).map(|k| tail_incl[k]).collect(); // P(X >= k)
        let tail_incl: Vec<f64> = (0..=m).map(|k| tail_incl[k + 1]).collect(); // P(X > k)
        AnalysisModel {
            m,
            pmf,
            tail_excl,
            tail_incl,
        }
    }

    /// The paper's default space for MPIL: 160-bit IDs in base 4
    /// (M = 80 digits).
    pub fn base4() -> Self {
        AnalysisModel::new(80, 4)
    }

    /// Pastry's space: 160-bit IDs in base 16 (M = 40 digits).
    pub fn base16() -> Self {
        AnalysisModel::new(40, 16)
    }

    /// Number of digits `M`.
    pub fn num_digits(&self) -> usize {
        self.m
    }

    /// `A(k)`: probability a random ID is `k`-common with the message.
    pub fn k_common_probability(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }

    /// `B(k) = P(X < k)`: probability a random ID matches fewer than `k`
    /// digits.
    pub fn cdf_exclusive(&self, k: usize) -> f64 {
        1.0 - self.tail_excl.get(k).copied().unwrap_or(0.0)
    }

    /// `D(k) = P(X <= k)`.
    pub fn cdf_inclusive(&self, k: usize) -> f64 {
        1.0 - self.tail_incl.get(k).copied().unwrap_or(0.0)
    }

    /// `C(d)`: probability that a node of degree `d` is a local maximum
    /// (every neighbor strictly less common than it).
    pub fn local_max_probability(&self, degree: usize) -> f64 {
        let d = degree as f64;
        let mut c = 0.0;
        for k in 1..=self.m {
            let a = self.pmf[k];
            if a == 0.0 {
                continue;
            }
            // B(k)^d computed as exp(d·ln(1−tail)) for accuracy near 1.
            let tail = self.tail_excl[k];
            let b_pow = if tail >= 1.0 {
                0.0
            } else {
                (d * (-tail).ln_1p()).exp()
            };
            c += a * b_pow;
        }
        c
    }

    /// Like [`AnalysisModel::local_max_probability`], but counting a node
    /// as a local maximum when no neighbor is *strictly* more common —
    /// i.e. allowing ties, which is the definition MPIL's insertion
    /// actually uses (Section 4.4: "none of its neighbor nodes have a
    /// higher MPIL routing metric value"). The paper's Figure 7 formula
    /// uses the tie-free `B(k)^d` and therefore *undercounts* realized
    /// local maxima by 30–60% at these digit distributions; simulation
    /// cross-checks must compare against this variant. At N = 2000 in
    /// base 4 the strict form expects 184.8, 75.8 and 30.0 local maxima
    /// at degrees 8, 20 and 50, this one 266.8, 120.1 and 51.7
    /// (`mpilctl analyze --what local-maxima`); a generated topology
    /// measures the latter.
    pub fn local_max_probability_with_ties(&self, degree: usize) -> f64 {
        let d = degree as f64;
        let mut c = 0.0;
        for k in 1..=self.m {
            let a = self.pmf[k];
            if a == 0.0 {
                continue;
            }
            let tail = self.tail_incl[k]; // P(X > k)
            let d_pow = if tail >= 1.0 {
                0.0
            } else {
                (d * (-tail).ln_1p()).exp()
            };
            c += a * d_pow;
        }
        c
    }

    /// Expected number of local maxima on a random `degree`-regular
    /// topology of `n` nodes: `N · C(d)` (Figure 7).
    pub fn expected_local_maxima_regular(&self, n: usize, degree: usize) -> f64 {
        n as f64 * self.local_max_probability(degree)
    }

    /// Tie-aware expected local maxima (what a simulation measures).
    pub fn expected_local_maxima_regular_with_ties(&self, n: usize, degree: usize) -> f64 {
        n as f64 * self.local_max_probability_with_ties(degree)
    }

    /// Expected number of local maxima under an arbitrary degree
    /// distribution (the general formula of Section 5.1).
    pub fn expected_local_maxima(&self, n: usize, degrees: &DegreeDistribution) -> f64 {
        let c: f64 = degrees
            .iter()
            .map(|(d, p)| p * self.local_max_probability(d))
            .sum();
        n as f64 * c
    }

    /// Expected random-walk hops to reach a local maximum on a
    /// `degree`-regular topology: `1 / C(d)` (Section 5.2).
    pub fn expected_hops_regular(&self, degree: usize) -> f64 {
        1.0 / self.local_max_probability(degree)
    }

    /// Expected number of replicas on a complete topology of `n` nodes:
    /// `N · Σ_k A(k) · D(k)^(N−1)` (Figure 8). Ties at the global maximum
    /// all store, hence the inclusive CDF.
    pub fn expected_replicas_complete(&self, n: usize) -> f64 {
        assert!(n >= 2, "complete topology needs at least two nodes");
        let e = (n - 1) as f64;
        let mut total = 0.0;
        for k in 1..=self.m {
            let a = self.pmf[k];
            if a == 0.0 {
                continue;
            }
            let tail = self.tail_incl[k];
            let d_pow = if tail >= 1.0 {
                0.0
            } else {
                (e * (-tail).ln_1p()).exp()
            };
            total += a * d_pow;
        }
        n as f64 * total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for model in [AnalysisModel::base4(), AnalysisModel::base16()] {
            let sum: f64 = (0..=model.num_digits())
                .map(|k| model.k_common_probability(k))
                .sum();
            assert!((sum - 1.0).abs() < 1e-12, "pmf sums to {sum}");
        }
    }

    #[test]
    fn cdfs_are_monotone_and_consistent() {
        let m = AnalysisModel::base4();
        for k in 0..80 {
            assert!(m.cdf_exclusive(k) <= m.cdf_exclusive(k + 1) + 1e-15);
            assert!(m.cdf_inclusive(k) <= m.cdf_inclusive(k + 1) + 1e-15);
            // D(k) = B(k) + A(k)
            let diff = m.cdf_inclusive(k) - m.cdf_exclusive(k) - m.k_common_probability(k);
            assert!(diff.abs() < 1e-12, "k={k}: {diff}");
        }
        assert!((m.cdf_inclusive(80) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_max_probability_decreases_with_degree() {
        let m = AnalysisModel::base4();
        let mut prev = 1.0;
        for d in [1usize, 5, 10, 20, 50, 100, 500] {
            let c = m.local_max_probability(d);
            assert!(c > 0.0 && c < prev, "C({d}) = {c} (prev {prev})");
            prev = c;
        }
    }

    #[test]
    fn local_max_probability_close_to_one_over_d_plus_one() {
        // Without ties, P(one of d+1 iid values is the strict max) would
        // be exactly 1/(d+1); ties only reduce it. With M=80 digits the
        // distribution is fairly spread, so C(d) is a bit below 1/(d+1).
        let m = AnalysisModel::base4();
        for d in [10usize, 30, 100] {
            let c = m.local_max_probability(d);
            let upper = 1.0 / (d as f64 + 1.0);
            assert!(c < upper, "C({d}) = {c} should be < {upper}");
            assert!(c > 0.55 * upper, "C({d}) = {c} too far below {upper}");
        }
    }

    #[test]
    fn figure7_magnitudes() {
        // Eyeballed from Figure 7 of the paper: at degree 10 the 16000-
        // node curve sits near 1100, at degree 100 near 110–130.
        let m = AnalysisModel::base4();
        let at10 = m.expected_local_maxima_regular(16000, 10);
        assert!((900.0..1400.0).contains(&at10), "d=10: {at10}");
        let at100 = m.expected_local_maxima_regular(16000, 100);
        assert!((80.0..200.0).contains(&at100), "d=100: {at100}");
    }

    #[test]
    fn figure8_magnitudes() {
        // Figure 8: expected replicas on complete topologies hovers in
        // roughly [1.55, 1.63] for N in [2000, 16000].
        let m = AnalysisModel::base4();
        for n in [2000usize, 4000, 8000, 16000] {
            let r = m.expected_replicas_complete(n);
            assert!((1.4..1.8).contains(&r), "N={n}: {r}");
        }
    }

    #[test]
    fn tie_aware_probability_exceeds_strict() {
        let m = AnalysisModel::base4();
        for d in [5usize, 20, 100] {
            let strict = m.local_max_probability(d);
            let ties = m.local_max_probability_with_ties(d);
            assert!(ties > strict, "d={d}: ties {ties} <= strict {strict}");
            assert!(ties < 3.0 * strict, "d={d}: gap implausibly large");
        }
    }

    #[test]
    fn expected_hops_is_inverse_of_c() {
        let m = AnalysisModel::base4();
        let c = m.local_max_probability(40);
        assert!((m.expected_hops_regular(40) - 1.0 / c).abs() < 1e-12);
    }

    #[test]
    fn general_formula_matches_regular_for_point_mass() {
        let m = AnalysisModel::base4();
        let dist = DegreeDistribution::new(vec![(30, 1.0)]);
        let a = m.expected_local_maxima(5000, &dist);
        let b = m.expected_local_maxima_regular(5000, 30);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn mixed_degree_distribution_interpolates() {
        let m = AnalysisModel::base4();
        let dist = DegreeDistribution::new(vec![(10, 0.5), (100, 0.5)]);
        let mixed = m.expected_local_maxima(1000, &dist);
        let lo = m.expected_local_maxima_regular(1000, 100);
        let hi = m.expected_local_maxima_regular(1000, 10);
        assert!(mixed > lo && mixed < hi);
    }

    #[test]
    fn histogram_constructor_normalizes() {
        let mut hist = vec![0usize; 11];
        hist[3] = 30;
        hist[10] = 70;
        let dist = DegreeDistribution::from_histogram(&hist);
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(dist.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn degree_distribution_must_normalize() {
        let _ = DegreeDistribution::new(vec![(3, 0.4)]);
    }
}
