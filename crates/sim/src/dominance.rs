//! Empirical distribution comparisons: Kolmogorov–Smirnov statistics and
//! stochastic-dominance checks.
//!
//! Used to verify the coupling results of Section 4 empirically:
//! `τ_seq ⪯ τ_par` (Theorem 4.1, checked via one-sided CDF dominance) and
//! the equality in distribution of the total step counts (checked via a
//! two-sample KS test).

/// Two-sample Kolmogorov–Smirnov statistic
/// `D = sup_x |F_a(x) − F_b(x)|`.
///
/// # Panics
///
/// Panics if either sample is empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "empty sample");
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
    sb.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// Asymptotic p-value of the two-sample KS test (Kolmogorov distribution
/// tail `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}`).
pub fn ks_p_value(a: &[f64], b: &[f64]) -> f64 {
    let d = ks_statistic(a, b);
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let ne = na * nb / (na + nb);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    kolmogorov_q(lambda)
}

fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda < 1e-8 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// One-sided empirical check of `A ⪯ B` (A stochastically dominated by B):
/// returns the maximum violation `sup_x (F_b(x) − F_a(x))⁺`; a value near 0
/// is consistent with dominance, large positive values refute it.
///
/// (`A ⪯ B` means `Pr[A > x] ≤ Pr[B > x]` for all `x`, i.e.
/// `F_a(x) ≥ F_b(x)`.)
pub fn dominance_violation(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "empty sample");
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
    sb.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut worst: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        worst = worst.max(j as f64 / nb - i as f64 / na);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use rand::RngExt;

    #[test]
    fn identical_samples_zero_statistic() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(ks_statistic(&xs, &xs), 0.0);
        assert!(ks_p_value(&xs, &xs) > 0.99);
    }

    #[test]
    fn disjoint_samples_full_statistic() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert_eq!(ks_statistic(&a, &b), 1.0);
        assert!(ks_p_value(&a, &b) < 0.1);
    }

    #[test]
    fn same_distribution_high_p() {
        let mut rng = Xoshiro256pp::new(1);
        let a: Vec<f64> = (0..2000).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = (0..2000).map(|_| rng.random::<f64>()).collect();
        assert!(ks_p_value(&a, &b) > 0.01);
    }

    #[test]
    fn different_distributions_low_p() {
        let mut rng = Xoshiro256pp::new(2);
        let a: Vec<f64> = (0..2000).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = (0..2000).map(|_| rng.random::<f64>() + 0.2).collect();
        assert!(ks_p_value(&a, &b) < 0.001);
    }

    #[test]
    fn dominance_detected() {
        let mut rng = Xoshiro256pp::new(3);
        let a: Vec<f64> = (0..3000).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        // A ⪯ B clearly
        assert!(dominance_violation(&a, &b) <= 0.05);
        // the reverse is violated by about the shift mass
        assert!(dominance_violation(&b, &a) > 0.3);
    }

    #[test]
    fn dominance_reflexive() {
        let xs = [5.0, 6.0, 7.0];
        assert_eq!(dominance_violation(&xs, &xs), 0.0);
    }

    #[test]
    fn kolmogorov_q_limits() {
        assert!(kolmogorov_q(0.0) >= 1.0 - 1e-9);
        assert!(kolmogorov_q(3.0) < 1e-6);
        assert!(kolmogorov_q(0.8) > kolmogorov_q(1.2));
    }
}
