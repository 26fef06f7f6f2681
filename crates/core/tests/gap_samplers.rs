//! Exact-law gates for the samplers behind the event-chain Uniform and
//! CTU schedules: the once-per-settle clock draws
//! ([`schedule::sample_negative_binomial`] over [`schedule::sample_poisson`]
//! and [`schedule::sample_gamma_int`]) and the exponential clocks of the
//! per-walker twin ([`schedule::sample_exponential`], including the heap
//! priming of [`schedule::CtuClocks`]).
//!
//! Each sampler is held against its defining law, mirroring the
//! cross-backend discipline of `solve_vs_dense.rs`:
//!
//! 1. **Poisson**: moments, and the pmf pointwise against the exact pmf on
//!    both sides of the λ = 10 switch from multiplication to PTRS; the CDF
//!    at ±2.5σ around λ ≈ 10⁶.
//! 2. **`NegBin(M, p)`** through the Gamma–Poisson mixture against an
//!    explicit sum of `M` geometrics (Bernoulli trials counted one by
//!    one): moments and a two-sample KS gate, and `p = 1` → 0.
//! 3. **`Gamma(M, 1)/k`** against `M` summed `Exp(k)` draws, on both sides
//!    of the shape-32 switch to Marsaglia–Tsang: moments and two-sample KS.
//! 4. **Exponential** moments and median, and the pinned priming stream of
//!    the per-walker clock heap.

mod common;

use common::{ks_statistic, ks_threshold, mean, variance};
use dispersion_core::engine::schedule::{
    self, sample_exponential, sample_gamma_int, sample_negative_binomial, sample_poisson,
};
use dispersion_core::engine::{self, EngineConfig, FirstVacant};
use dispersion_core::process::ProcessConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The exact `Poisson(lambda)` pmf on a window of ±(10σ + 10) around the
/// mode — by the ratio recursion `p(k+1)/p(k) = λ/(k+1)` outward from the
/// mode, then normalised (the mass outside the window is below 10⁻²⁰).
/// Returns the window's first `k` and the pmf from there on.
fn poisson_pmf(lambda: f64) -> (u64, Vec<f64>) {
    let mode = lambda.floor() as u64;
    let half = (10.0 * lambda.sqrt() + 10.0) as u64;
    let lo = mode.saturating_sub(half);
    let mut pmf = vec![0.0; (mode + half - lo + 1) as usize];
    let at_mode = (mode - lo) as usize;
    pmf[at_mode] = 1.0;
    for i in at_mode + 1..pmf.len() {
        pmf[i] = pmf[i - 1] * lambda / (lo + i as u64) as f64;
    }
    for i in (0..at_mode).rev() {
        pmf[i] = pmf[i + 1] * (lo + i as u64 + 1) as f64 / lambda;
    }
    let total: f64 = pmf.iter().sum();
    pmf.iter_mut().for_each(|p| *p /= total);
    (lo, pmf)
}

/// Asserts an empirical frequency against its exact probability within a
/// 5σ binomial band.
fn assert_frequency(what: &str, hits: usize, draws: usize, exact: f64) {
    let emp = hits as f64 / draws as f64;
    let tol = 5.0 * (exact * (1.0 - exact) / draws as f64).sqrt() + 1e-9;
    assert!(
        (emp - exact).abs() < tol,
        "{what}: empirical {emp} vs exact {exact} (tol {tol})"
    );
}

/// Asserts mean and variance of `xs` against the exact moments: the mean
/// within 5 standard errors, the variance within `var_tol` relative.
fn assert_moments(what: &str, xs: &[f64], m_exact: f64, v_exact: f64, var_tol: f64) {
    let (m, v) = (mean(xs), variance(xs));
    let m_tol = 5.0 * (v_exact / xs.len() as f64).sqrt() + 1e-12;
    assert!(
        (m - m_exact).abs() < m_tol,
        "{what}: mean {m} vs {m_exact} (tol {m_tol})"
    );
    assert!(
        (v - v_exact).abs() < var_tol * v_exact + 1e-12,
        "{what}: variance {v} vs {v_exact}"
    );
}

#[test]
fn poisson_moments_on_both_sides_of_the_switch_and_near_a_million() {
    let draws = 20_000usize;
    for (i, lambda) in [0.3, 2.0, 9.99, 10.0, 10.5, 47.0, 900.0, 1.0e6]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(3000 + i as u64);
        let xs: Vec<f64> = (0..draws)
            .map(|_| sample_poisson(lambda, &mut rng) as f64)
            .collect();
        // the sample variance of a Poisson has sd √((λ + 2λ²)/N)
        let var_tol = 5.0 * ((lambda + 2.0 * lambda * lambda) / draws as f64).sqrt() / lambda;
        assert_moments(&format!("Poisson({lambda})"), &xs, lambda, lambda, var_tol);
    }
}

#[test]
fn poisson_pmf_pointwise_on_both_sides_of_the_switch() {
    let draws = 40_000usize;
    for (i, lambda) in [0.7, 4.0, 9.5, 10.0, 13.0, 60.0].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(4000 + i as u64);
        let (lo, pmf) = poisson_pmf(lambda);
        let mut counts = vec![0usize; pmf.len()];
        for _ in 0..draws {
            let k = sample_poisson(lambda, &mut rng);
            assert!(k >= lo, "Poisson({lambda}) drew {k}, far below the mean");
            counts[(k - lo) as usize] += 1;
        }
        // pointwise where a bin expects ≥ 20 hits; the sparse bins of
        // each tail are lumped, so the binomial band stays valid
        let dense = |j: usize| pmf[j] * draws as f64 >= 20.0;
        let first = (0..pmf.len()).find(|&j| dense(j)).unwrap();
        let last = (0..pmf.len()).rev().find(|&j| dense(j)).unwrap();
        for j in first..=last {
            assert_frequency(
                &format!("Poisson({lambda}) pmf at {}", lo + j as u64),
                counts[j],
                draws,
                pmf[j],
            );
        }
        for (tail, range) in [("lower", 0..first), ("upper", last + 1..pmf.len())] {
            assert_frequency(
                &format!("Poisson({lambda}) {tail} tail"),
                counts[range.clone()].iter().sum(),
                draws,
                pmf[range].iter().sum(),
            );
        }
    }
}

#[test]
fn poisson_cdf_near_a_million() {
    let draws = 20_000usize;
    let lambda = 1_000_003.5;
    let (lo, pmf) = poisson_pmf(lambda);
    let mut rng = StdRng::seed_from_u64(5000);
    let xs: Vec<u64> = (0..draws)
        .map(|_| sample_poisson(lambda, &mut rng))
        .collect();
    for z in [-2.5, -1.5, -0.5, 0.0, 0.5, 1.5, 2.5] {
        let edge = (lambda + z * lambda.sqrt()).floor() as u64;
        let exact: f64 = pmf[..=(edge - lo) as usize].iter().sum();
        let hits = xs.iter().filter(|&&x| x <= edge).count();
        assert_frequency(
            &format!("Poisson({lambda}) CDF at {edge}"),
            hits,
            draws,
            exact,
        );
    }
}

/// `NegBin(r, p)` the long way: Bernoulli(`p`) trials until the `r`-th
/// success, counting the failures — a sum of `r` geometrics.
fn explicit_negative_binomial(r: u64, p: f64, rng: &mut StdRng) -> u64 {
    let (mut successes, mut failures) = (0, 0);
    while successes < r {
        if rng.random::<f64>() < p {
            successes += 1;
        } else {
            failures += 1;
        }
    }
    failures
}

#[test]
fn negative_binomial_mixture_matches_summed_geometrics() {
    let draws = 4000usize;
    for (i, (r, p)) in [
        (1u64, 0.3),
        (4, 0.05),
        (25, 0.5),
        (33, 0.2),
        (150, 0.8),
        (400, 0.97),
        // a certain hit never skips
        (50, 1.0),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(6000 + i as u64);
        let mixture: Vec<f64> = (0..draws)
            .map(|_| sample_negative_binomial(r, p, &mut rng) as f64)
            .collect();
        let summed: Vec<f64> = (0..draws)
            .map(|_| explicit_negative_binomial(r, p, &mut rng) as f64)
            .collect();
        let q = 1.0 - p;
        let what = format!("NegBin({r}, {p})");
        let (m_exact, v_exact) = (r as f64 * q / p, r as f64 * q / (p * p));
        assert_moments(&format!("{what} mixture"), &mixture, m_exact, v_exact, 0.25);
        assert_moments(&format!("{what} summed"), &summed, m_exact, v_exact, 0.25);
        let d = ks_statistic(&mixture, &summed);
        assert!(
            d <= ks_threshold(draws, draws),
            "{what}: KS statistic {d} between mixture and summed geometrics"
        );
    }
}

#[test]
fn gamma_over_rate_matches_summed_exponentials() {
    let draws = 4000usize;
    for (i, (shape, rate)) in [
        (1u64, 1.0),
        (7, 3.0),
        (32, 57.0),
        (33, 1.0),
        (100, 3.0),
        (1000, 57.0),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(8000 + i as u64);
        let gamma: Vec<f64> = (0..draws)
            .map(|_| sample_gamma_int(shape, &mut rng) / rate)
            .collect();
        let summed: Vec<f64> = (0..draws)
            .map(|_| (0..shape).map(|_| sample_exponential(rate, &mut rng)).sum())
            .collect();
        let what = format!("Gamma({shape}, 1)/{rate}");
        let (m_exact, v_exact) = (shape as f64 / rate, shape as f64 / (rate * rate));
        assert_moments(&format!("{what} direct"), &gamma, m_exact, v_exact, 0.15);
        assert_moments(&format!("{what} summed"), &summed, m_exact, v_exact, 0.15);
        let d = ks_statistic(&gamma, &summed);
        assert!(
            d <= ks_threshold(draws, draws),
            "{what}: KS statistic {d} against {shape} summed Exp({rate})"
        );
    }
}

#[test]
fn exponential_moments_over_ten_thousand_draws() {
    let draws = 10_000usize;
    for (i, rate) in [0.5f64, 1.0, 4.0, 32.0].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(2000 + i as u64);
        let xs: Vec<f64> = (0..draws)
            .map(|_| sample_exponential(rate, &mut rng))
            .collect();
        let mean = xs.iter().sum::<f64>() / draws as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws as f64;
        let (m_exact, v_exact) = (1.0 / rate, 1.0 / (rate * rate));
        assert!(
            (mean - m_exact).abs() < 5.0 * (v_exact / draws as f64).sqrt(),
            "rate={rate}: mean {mean} vs {m_exact}"
        );
        assert!(
            (var - v_exact).abs() < 0.2 * v_exact,
            "rate={rate}: var {var} vs {v_exact}"
        );
        assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }
}

#[test]
fn clock_heap_priming_matches_pinned_stream() {
    // CtuClocks primes one Exp(1) clock per active walker in ascending pid
    // order; on the clique the first move's dt must equal the minimum of
    // exactly those draws, bit-for-bit, and the winning pid must be the
    // argmin. Verified by replaying the pinned RNG stream by hand.
    let n = 24usize;
    let g = dispersion_graphs::generators::complete(n);
    for seed in 0..8u64 {
        // hand replay: the engine spawns eagerly (no draws), then the first
        // schedule.next() primes clocks for actives 1..n in order
        let mut replay = StdRng::seed_from_u64(seed);
        let primed: Vec<f64> = (1..n)
            .map(|_| sample_exponential(1.0, &mut replay))
            .collect();
        let (argmin, &min_t) = primed
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();

        struct FirstMove {
            dt: f64,
            pid: usize,
            seen: bool,
        }
        impl engine::Observer for FirstMove {
            fn on_tick(&mut self, pid: usize, view: &engine::EngineView<'_>) {
                if !self.seen {
                    self.seen = true;
                    self.dt = view.clock.time;
                    self.pid = pid;
                }
            }
        }
        let mut first = FirstMove {
            dt: f64::NAN,
            pid: usize::MAX,
            seen: false,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let ecfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
        engine::run(
            &g,
            &mut schedule::CtuClocks::new(),
            &FirstVacant,
            &ecfg,
            &mut first,
            &mut rng,
        )
        .unwrap();
        assert!(first.seen);
        assert_eq!(first.dt.to_bits(), min_t.to_bits(), "seed {seed}");
        assert_eq!(first.pid, argmin + 1, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn negative_binomial_mean(r in 1u64..64, p in 0.05f64..1.0, seed in 0u64..1u64 << 32) {
        let draws = 2000usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..draws)
            .map(|_| sample_negative_binomial(r, p, &mut rng) as f64)
            .collect();
        let q = 1.0 - p;
        let (m_exact, v_exact) = (r as f64 * q / p, r as f64 * q / (p * p));
        let tol = 5.0 * (v_exact / draws as f64).sqrt() + 1e-9;
        prop_assert!(
            (mean(&xs) - m_exact).abs() < tol,
            "NegBin({}, {}): mean {} vs {} (tol {})", r, p, mean(&xs), m_exact, tol
        );
    }

    #[test]
    fn exponential_cdf_at_median(rate in 0.1f64..64.0, seed in 0u64..1u64 << 32) {
        let draws = 4000usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let median = std::f64::consts::LN_2 / rate;
        let below = (0..draws)
            .filter(|_| sample_exponential(rate, &mut rng) <= median)
            .count() as f64 / draws as f64;
        prop_assert!((below - 0.5).abs() < 0.04, "rate={}: {} below median", rate, below);
    }
}
