//! Log-gamma and log-binomial, implemented from scratch (no external
//! math crates are available offline).

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, 9 coefficients; ~15 significant digits for `x > 0`).
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection branch is not needed here and
/// keeping the domain positive avoids silent nonsense).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain is x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns `-inf` for `k > n`.
pub(crate) fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn gamma_at_integers_is_factorial() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            assert!(
                close(ln_gamma(f64::from(n)), fact.ln(), 1e-12),
                "Γ({n}) mismatch"
            );
            fact *= f64::from(n);
        }
    }

    #[test]
    fn gamma_half_is_sqrt_pi() {
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
    }

    #[test]
    fn gamma_reflection_branch_works() {
        // Γ(0.25) ≈ 3.6256099082...
        assert!(close(ln_gamma(0.25), 3.625_609_908_221_908f64.ln(), 1e-10));
    }

    #[test]
    fn binomial_small_cases_exact() {
        let exact = |n: u64, k: u64| -> f64 {
            let mut num = 1.0f64;
            for i in 0..k {
                num *= (n - i) as f64 / (i + 1) as f64;
            }
            num
        };
        for n in 0..30u64 {
            for k in 0..=n {
                assert!(
                    close(ln_binomial(n, k), exact(n, k).ln(), 1e-10),
                    "C({n},{k})"
                );
            }
        }
    }

    #[test]
    fn binomial_edge_cases() {
        assert_eq!(ln_binomial(5, 0), 0.0);
        assert_eq!(ln_binomial(5, 5), 0.0);
        assert_eq!(ln_binomial(3, 9), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_large_values_finite() {
        let v = ln_binomial(160, 80);
        assert!(v.is_finite());
        // C(160,80) ~ 9.2e46 => ln ~ 108.1
        assert!((v - 108.13).abs() < 0.1, "got {v}");
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn gamma_rejects_non_positive() {
        let _ = ln_gamma(0.0);
    }
}
