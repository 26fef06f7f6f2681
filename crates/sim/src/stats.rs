//! Summary statistics for Monte-Carlo samples.
//!
//! Two estimators live here:
//!
//! * [`Summary`] — the classical two-pass batch summary over a materialised
//!   sample slice (kept for call sites that already hold the samples, and as
//!   the reference implementation the one-pass estimator is property-tested
//!   against);
//! * [`Online`] — a one-pass Welford accumulator with Chan-style merging,
//!   used by the streaming [`runner`](crate::runner) so no sample vector is
//!   ever materialised, no matter how many trials a cell runs.

/// One-pass running moments (Welford's algorithm) with min/max tracking and
/// Chan's parallel merge rule.
///
/// Numerically this matches the two-pass [`Summary`] to ≈1e-12 relative
/// error (see `tests/online_stats.rs`), but note that *merging is not
/// floating-point associative*: callers that need bit-identical results
/// across thread counts must merge partials in a deterministic order, as
/// the runner does (fixed chunk boundaries, merged in chunk order).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Online {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Online {
    fn default() -> Self {
        Online::new()
    }
}

impl Online {
    /// An empty accumulator.
    pub fn new() -> Self {
        Online {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator in (Chan et al.'s pairwise update).
    pub fn merge(&mut self, other: &Online) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observation has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Running mean (`0` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`0` below two observations).
    pub fn var(&self) -> f64 {
        if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        }
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        self.var().sqrt()
    }

    /// Standard error of the mean.
    pub fn sem(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the 95% normal-approximation CI for the mean.
    pub fn ci95_half(&self) -> f64 {
        1.96 * self.sem()
    }

    /// Relative half-width of the 95% CI (`1.96·sem / |mean|`); `inf` for a
    /// zero mean or an empty accumulator.
    pub fn relative_ci(&self) -> f64 {
        if self.mean == 0.0 || self.count == 0 {
            f64::INFINITY
        } else {
            self.ci95_half() / self.mean.abs()
        }
    }
}

/// Summary of a sample: moments, a normal-approximation confidence interval,
/// and order statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub var: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Standard error of the mean.
    pub sem: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
}

impl Summary {
    /// Computes a summary.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "empty sample");
        let n = samples.len();
        // LINT: float-reduction-ok — two-pass reference implementation that
        // Online is validated against; order fixed by the sample slice
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            // LINT: float-reduction-ok — same two-pass reference as the mean
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std = var.sqrt();
        let sem = std / (n as f64).sqrt();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = quantile_sorted(&sorted, 0.5);
        Summary {
            n,
            mean,
            var,
            std,
            sem,
            min: sorted[0],
            max: sorted[n - 1],
            median,
        }
    }

    /// Relative half-width of the 95% CI (`1.96·sem / mean`); `inf` for a
    /// zero mean.
    pub fn relative_ci(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            1.96 * self.sem / self.mean.abs()
        }
    }
}

/// `p`-quantile of a sample (linear interpolation).
///
/// # Panics
///
/// Panics on an empty sample or `p ∉ [0, 1]`.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    quantile_sorted(&sorted, p)
}

fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p = {p} out of range");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sample() {
        let s = Summary::from_samples(&[3.0; 10]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.var, 0.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn known_small_sample() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.var - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        // unsorted input handled
        let ys = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&ys, 0.5), 3.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.var, 0.0);
        assert_eq!(s.sem, 0.0);
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn ci_narrows_with_n() {
        let small = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        let big_data: Vec<f64> = (0..400).map(|i| 1.0 + (i % 4) as f64).collect();
        let big = Summary::from_samples(&big_data);
        assert!(big.sem < small.sem);
        assert!(big.relative_ci() < small.relative_ci());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn online_matches_two_pass_on_known_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let mut o = Online::new();
        for &x in &xs {
            o.push(x);
        }
        let s = Summary::from_samples(&xs);
        assert_eq!(o.count(), 4);
        assert_eq!(o.mean(), s.mean);
        assert!((o.var() - s.var).abs() < 1e-14);
        assert_eq!(o.min(), s.min);
        assert_eq!(o.max(), s.max);
        assert!((o.sem() - s.sem).abs() < 1e-14);
    }

    #[test]
    fn online_merge_agrees_with_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 13) as f64 - 6.0).collect();
        let mut whole = Online::new();
        for &x in &xs {
            whole.push(x);
        }
        let (a, b) = xs.split_at(33);
        let mut left = Online::new();
        let mut right = Online::new();
        a.iter().for_each(|&x| left.push(x));
        b.iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.var() - whole.var()).abs() < 1e-10);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn online_merge_empty_identity() {
        let mut o = Online::new();
        o.push(5.0);
        o.push(7.0);
        let snapshot = o;
        o.merge(&Online::new());
        assert_eq!(o, snapshot);
        let mut e = Online::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn online_empty_and_single() {
        let o = Online::new();
        assert!(o.is_empty());
        assert_eq!(o.sem(), 0.0);
        assert_eq!(o.relative_ci(), f64::INFINITY);
        let mut one = Online::new();
        one.push(7.0);
        assert_eq!(one.mean(), 7.0);
        assert_eq!(one.var(), 0.0);
        assert_eq!(one.ci95_half(), 0.0);
        assert_eq!(one.relative_ci(), 0.0);
    }
}
