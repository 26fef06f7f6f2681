//! Histograms and ASCII rendering — used by the counterexample experiments
//! to make the Prop. 2.1 bimodality visible in terminal output.

/// A fixed-bin histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<usize>,
    underflow: usize,
    overflow: usize,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "empty range");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Builds a histogram spanning a sample's range.
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        assert!(!samples.is_empty());
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let hi = if hi > lo {
            hi * (1.0 + 1e-12) + 1e-12
        } else {
            lo + 1.0
        };
        let mut h = Histogram::new(lo, hi, bins);
        for &x in samples {
            h.add(x);
        }
        h
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let k = self.bins.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * k as f64) as usize;
            self.bins[idx.min(k - 1)] += 1;
        }
    }

    /// Total observations including out-of-range ones.
    pub fn count(&self) -> usize {
        self.bins.iter().sum::<usize>() + self.underflow + self.overflow
    }

    /// Number of local maxima with at least `min_mass` fraction of the
    /// total — a crude mode counter (bimodality detector for Prop. 2.1).
    pub fn modes(&self, min_mass: f64) -> usize {
        let total = self.count().max(1) as f64;
        let mut modes = 0;
        for i in 0..self.bins.len() {
            let c = self.bins[i];
            if (c as f64) / total < min_mass {
                continue;
            }
            let left = if i == 0 { 0 } else { self.bins[i - 1] };
            let right = if i + 1 == self.bins.len() {
                0
            } else {
                self.bins[i + 1]
            };
            if c >= left && c > right {
                modes += 1;
            }
        }
        modes
    }

    /// Renders as rows of `#` bars with bin ranges, `width` chars max.
    pub fn render(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(1).max(1);
        let bin_w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let bar = "#".repeat((c * width).div_ceil(max).min(width) * usize::from(c > 0));
            let lo = self.lo + bin_w * i as f64;
            out.push_str(&format!("{:>12.1} | {:<5} {}\n", lo, c, bar));
        }
        if self.underflow > 0 {
            out.push_str(&format!("  underflow: {}\n", self.underflow));
        }
        if self.overflow > 0 {
            out.push_str(&format!("   overflow: {}\n", self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 2.7, 9.9] {
            h.add(x);
        }
        // bin width 2: [0,2) gets 0.5 & 1.5; [2,4) gets 2.5 & 2.7; [8,10) gets 9.9
        assert_eq!(h.bins, [2, 2, 0, 0, 1]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn out_of_range_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-1.0);
        h.add(5.0);
        h.add(0.5);
        assert_eq!(h.count(), 3);
        let s = h.render(10);
        assert!(s.contains("underflow: 1"));
        assert!(s.contains("overflow: 1"));
    }

    #[test]
    fn from_samples_spans_range() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let h = Histogram::from_samples(&xs, 4);
        assert_eq!(h.count(), 4);
        assert_eq!(h.bins.iter().sum::<usize>(), 4);
    }

    #[test]
    fn unimodal_vs_bimodal() {
        // unimodal: everything in the middle
        let uni: Vec<f64> = (0..100).map(|i| 5.0 + 0.01 * (i % 10) as f64).collect();
        let h = Histogram::new(0.0, 10.0, 10);
        let mut h1 = h.clone();
        for &x in &uni {
            h1.add(x);
        }
        assert_eq!(h1.modes(0.05), 1);
        // bimodal: two clusters
        let mut h2 = h;
        for i in 0..50 {
            h2.add(1.0 + 0.01 * (i % 5) as f64);
            h2.add(8.0 + 0.01 * (i % 5) as f64);
        }
        assert_eq!(h2.modes(0.05), 2);
    }

    #[test]
    fn render_shape() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for _ in 0..8 {
            h.add(1.5);
        }
        h.add(3.5);
        let s = h.render(8);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("########"));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn bad_range_rejected() {
        let _ = Histogram::new(1.0, 1.0, 3);
    }
}
