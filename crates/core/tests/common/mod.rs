//! Sample statistics shared by the statistical test suites.

// each suite uses its own subset
#![allow(dead_code)]

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance.
pub fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() as f64 - 1.0)
}

/// Standard error of the sample mean.
pub fn std_error(xs: &[f64]) -> f64 {
    (variance(xs) / xs.len() as f64).sqrt()
}

/// Two-sample KS statistic `sup |F₁ − F₂|`.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_by(|x, y| x.partial_cmp(y).unwrap());
    b.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// The two-sample KS rejection threshold `c·√((n₁+n₂)/(n₁n₂))` with
/// `c = 1.95` (α ≈ 10⁻³; seeds are fixed, so any failure is a real
/// regression).
pub fn ks_threshold(n1: usize, n2: usize) -> f64 {
    1.95 * ((n1 + n2) as f64 / (n1 * n2) as f64).sqrt()
}
