//! Order statistics for reporting: medians, quartiles and the highest
//! percentile a sample can support, over the program's own
//! linear-interpolation [`quantile`].

pub use dispersion_sim::stats::quantile;

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Summary of a sample: count, quartiles, the highest of the standard
/// percentiles (p50, p90, p99, p99.9) with at least ten samples beyond
/// it, and the maximum.
#[derive(Clone, Debug)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// Largest sample.
    pub max: f64,
    /// `(percentile, value)` of the supported tail, when any is.
    pub tail: Option<(f64, f64)>,
}

impl Dist {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Dist {
        let n = values.len();
        let tail = [99.9, 99.0, 90.0, 50.0]
            .into_iter()
            .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
            .map(|p| (p, quantile(values, p / 100.0)));
        Dist {
            n,
            p25: quantile(values, 0.25),
            p50: quantile(values, 0.5),
            p75: quantile(values, 0.75),
            max: quantile(values, 1.0),
            tail,
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }

    /// JSON object form for the report.
    pub fn json(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(",\"tail_pct\":{p},\"tail\":{v}"),
            None => String::new(),
        };
        format!(
            "{{\"n\":{},\"p25\":{},\"p50\":{},\"p75\":{},\"max\":{}{tail}}}",
            self.n, self.p25, self.p50, self.p75, self.max
        )
    }
}

/// A cost measured as paired differences (with minus without, each pair
/// run back to back so drift hits both sides alike): the median
/// difference and the spread of the pairs.
#[derive(Clone, Debug)]
pub struct Paired {
    /// Pairs.
    pub n: usize,
    /// Median difference.
    pub median: f64,
    /// Interquartile range of the differences.
    pub iqr: f64,
}

impl Paired {
    /// Summarises paired differences.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(diffs: &[f64]) -> Paired {
        let d = Dist::of(diffs);
        Paired {
            n: d.n,
            median: d.p50,
            iqr: d.iqr(),
        }
    }

    /// Whether the median difference stands above the pairs' spread.
    pub fn resolved(&self) -> bool {
        self.median > self.iqr
    }

    /// The reported figure: the median difference when resolved, else
    /// the spread — the smallest cost these pairs could have shown, so an
    /// unresolved cost reads as an upper bound and never as 0 or less.
    pub fn value(&self) -> f64 {
        if self.resolved() {
            self.median
        } else {
            self.iqr
        }
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        let verdict = if self.resolved() {
            "resolved; value is the median"
        } else {
            "unresolved (median not above the spread); value is the spread, an upper bound"
        };
        format!(
            "median {} over {} pairs, interquartile range {}: {verdict}",
            self.median, self.n, self.iqr
        )
    }
}

/// Total length of the union of `intervals` (each `(start, end)`).
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Dist::of(&v).tail.map(|t| t.0), Some(90.0));
        assert_eq!(Dist::of(&v[..19]).tail, None);
        assert_eq!(Dist::of(&v[..20]).tail.map(|t| t.0), Some(50.0));
    }

    #[test]
    fn unresolved_difference_reports_its_spread() {
        let clear = Paired::of(&[1.0, 1.1, 0.9, 1.0]);
        assert!(clear.resolved());
        assert_eq!(clear.value(), clear.median);
        let noise = Paired::of(&[-0.5, 0.4, 0.1, -0.2]);
        assert!(!noise.resolved());
        assert!(noise.value() > 0.0);
    }

    #[test]
    fn union_merges_overlaps() {
        let mut iv = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)];
        assert_eq!(union_len(&mut iv), 4.0);
    }
}
