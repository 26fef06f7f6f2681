//! Scaling-law fitting on log-log data.
//!
//! Table 1 claims asymptotic orders like `Θ(n)`, `Θ(n² log n)` or
//! `Θ(n log² n)`. To compare measured dispersion times against these shapes
//! we regress `log T` on `log n` (a plain power law).

/// A fitted power law `y ≈ a · n^b`.
#[derive(Clone, Copy, Debug)]
// LINT: unused-pub-ok — returned by the public `fit_power`
pub struct PowerFit {
    /// Amplitude `a`.
    pub amplitude: f64,
    /// Exponent `b`.
    pub exponent: f64,
    /// Coefficient of determination of the log-log regression.
    pub r2: f64,
}

/// Fits `y ≈ a · x^b` by least squares on `(ln x, ln y)`.
///
/// # Panics
///
/// Panics with fewer than 2 points or non-positive data.
pub fn fit_power(xs: &[f64], ys: &[f64]) -> PowerFit {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points");
    assert!(
        xs.iter().chain(ys).all(|&v| v > 0.0),
        "power-law fit requires positive data"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let sx: f64 = lx.iter().sum(); // LINT: float-reduction-ok — fixed-order analytic reduction in slice order
    let sy: f64 = ly.iter().sum(); // LINT: float-reduction-ok — fixed-order analytic reduction in slice order
    let sxx: f64 = lx.iter().map(|x| x * x).sum(); // LINT: float-reduction-ok — fixed-order analytic reduction in slice order
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| x * y).sum(); // LINT: float-reduction-ok — fixed-order analytic reduction in slice order
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "x values are all equal");
    let b = (n * sxy - sx * sy) / denom;
    let c = (sy - b * sx) / n;
    // R² in log space
    let mean_y = sy / n;
    let ss_tot: f64 = ly.iter().map(|y| (y - mean_y).powi(2)).sum(); // LINT: float-reduction-ok — fixed-order analytic reduction in slice order
    let ss_res: f64 = lx
        .iter()
        .zip(&ly)
        .map(|(x, y)| (y - (c + b * x)).powi(2))
        .sum(); // LINT: float-reduction-ok — fixed-order analytic reduction in slice order
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    PowerFit {
        amplitude: c.exp(),
        exponent: b,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_law_recovered() {
        let xs: Vec<f64> = (1..=8).map(|i| (i * i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(1.5)).collect();
        let fit = fit_power(&xs, &ys);
        assert!((fit.exponent - 1.5).abs() < 1e-9);
        assert!((fit.amplitude - 3.0).abs() < 1e-9);
        assert!(fit.r2 > 0.999999);
    }

    #[test]
    fn noisy_power_law_close() {
        let xs: Vec<f64> = vec![10.0, 20.0, 40.0, 80.0, 160.0];
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x * x * (1.0 + 0.02 * ((i % 2) as f64 - 0.5)))
            .collect();
        let fit = fit_power(&xs, &ys);
        assert!((fit.exponent - 2.0).abs() < 0.05, "exp {}", fit.exponent);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_data_rejected() {
        let _ = fit_power(&[1.0, 2.0], &[0.0, 1.0]);
    }
}
