//! Spectral gap, relaxation time, and exact total-variation mixing time.
//!
//! The paper's refined bounds (Theorems 3.3 / 3.5) and its expander results
//! are phrased in terms of `t_mix` and `1 − λ₂`. For small graphs we compute
//! `t_mix(ε)` exactly by evolving `P^t` with repeated squaring; for larger
//! graphs the standard spectral sandwich
//! `(t_rel − 1)·ln(1/2ε) ≤ t_mix(ε) ≤ t_rel · ln(1/(ε·π_min))`
//! is available.

use crate::stationary::stationary;
use crate::transition::{normalized_adjacency, transition_matrix, WalkKind};
use dispersion_graphs::Graph;
use dispersion_linalg::vector::total_variation;
use dispersion_linalg::{jacobi_eigen, Matrix};

/// All eigenvalues of the walk matrix (via the similar symmetric matrix
/// `N = D^{-1/2} A D^{-1/2}`), descending. Always dense (`O(n³)` per Jacobi
/// sweep): the sparse engine only estimates the spectrum's edge — use
/// [`lambda2`] / [`spectral_gap`] when only the gap is needed.
fn walk_spectrum(g: &Graph, kind: WalkKind) -> Vec<f64> {
    let n = normalized_adjacency(g, kind);
    jacobi_eigen(&n, 1e-12).values
}

/// Second-largest eigenvalue `λ₂` of the walk matrix: the full Jacobi
/// spectrum up to 512 states, a deflated Lanczos edge estimate beyond.
pub fn lambda2(g: &Graph, kind: WalkKind) -> f64 {
    if crate::dense(g.n()) {
        walk_spectrum(g, kind)[1]
    } else {
        dispersion_solve::lambda2_sparse(g, kind)
    }
}

/// Second-largest eigenvalue *in absolute value*
/// `λ* = max(|λ₂|, |λ_n|)` — the quantity in the paper's expander
/// definition (`1 − λ* = Ω(1)`).
pub fn lambda_star(g: &Graph, kind: WalkKind) -> f64 {
    if crate::dense(g.n()) {
        let spec = walk_spectrum(g, kind);
        spec[1].abs().max(spec.last().unwrap().abs())
    } else {
        dispersion_solve::lambda_star_sparse(g, kind)
    }
}

/// Spectral gap `1 − λ*`. The sparse path (above 512 states) is clamped
/// into `[0, 2]` (see `dispersion_solve::spectral_gap_sparse`) so
/// last-digit Lanczos noise cannot produce a negative gap — and hence a
/// negative relaxation time — downstream.
pub fn spectral_gap(g: &Graph, kind: WalkKind) -> f64 {
    if crate::dense(g.n()) {
        1.0 - lambda_star(g, kind)
    } else {
        dispersion_solve::spectral_gap_sparse(g, kind)
    }
}

/// Relaxation time `t_rel = 1 / (1 − λ*)`.
pub fn relaxation_time(g: &Graph, kind: WalkKind) -> f64 {
    1.0 / spectral_gap(g, kind)
}

fn worst_tv(pt: &Matrix, pi: &[f64]) -> f64 {
    (0..pt.rows())
        .map(|u| total_variation(pt.row(u), pi))
        .fold(0.0, f64::max)
}

/// Exact mixing time `t_mix(ε) = min { t : d(t) ≤ ε }` by doubling plus
/// binary search over matrix powers (`O(n³ log t_mix)`).
///
/// Returns `None` if the chain has not mixed within `max_t` steps (e.g. a
/// periodic non-lazy chain on a bipartite graph never mixes).
pub fn mixing_time(g: &Graph, kind: WalkKind, eps: f64, max_t: usize) -> Option<usize> {
    let p = transition_matrix(g, kind);
    let pi = stationary(g);
    if worst_tv(&Matrix::identity(g.n()), &pi) <= eps {
        return Some(0);
    }
    // doubling phase: powers[k] = P^(2^k)
    let mut powers = vec![p.clone()];
    let mut t = 1usize;
    loop {
        let d = worst_tv(powers.last().unwrap(), &pi);
        if d <= eps {
            break;
        }
        if t >= max_t {
            return None;
        }
        let last = powers.last().unwrap();
        powers.push(last.matmul(last));
        t *= 2;
    }
    // binary search in (t/2, t]: build P^mid from binary expansion
    let (mut lo, mut hi) = (t / 2, t); // d(lo) > eps >= d(hi)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let pm = power_from_squares(&powers, mid);
        if worst_tv(&pm, &pi) <= eps {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

fn power_from_squares(powers: &[Matrix], t: usize) -> Matrix {
    let n = powers[0].rows();
    let mut result = Matrix::identity(n);
    for (k, pk) in powers.iter().enumerate() {
        if t & (1 << k) != 0 {
            result = result.matmul(pk);
        }
    }
    result
}

/// Spectral sandwich on the mixing time:
/// `(t_rel − 1)·ln(1/(2ε)) ≤ t_mix(ε) ≤ t_rel·ln(1/(ε π_min))`
/// (Levin–Peres–Wilmer Theorems 12.4 and 12.5). Only meaningful for lazy
/// (aperiodic) walks.
pub fn mixing_time_bounds(g: &Graph, kind: WalkKind, eps: f64) -> (f64, f64) {
    let trel = relaxation_time(g, kind);
    let pi_min = stationary(g).into_iter().fold(f64::INFINITY, f64::min);
    let lower = (trel - 1.0) * (1.0 / (2.0 * eps)).ln();
    let upper = trel * (1.0 / (eps * pi_min)).ln();
    (lower.max(0.0), upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::{complete, cycle, hypercube, path, star};

    /// Worst-case TV distance to stationarity after `t` steps:
    /// `d(t) = max_u ‖P^t(u, ·) − π‖_TV`.
    fn tv_distance_at(g: &Graph, kind: WalkKind, t: usize) -> f64 {
        let p = transition_matrix(g, kind);
        let pt = crate::transition::matrix_power(&p, t);
        worst_tv(&pt, &stationary(g))
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n walk eigenvalues: 1 and -1/(n-1) (n-1 times).
        let n = 6;
        let spec = walk_spectrum(&complete(n), WalkKind::Simple);
        assert!((spec[0] - 1.0).abs() < 1e-9);
        for v in &spec[1..] {
            assert!((v + 1.0 / (n as f64 - 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn cycle_lambda2_cosine() {
        // C_n: eigenvalues cos(2πk/n).
        let n = 8;
        let l2 = lambda2(&cycle(n), WalkKind::Simple);
        let expect = (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((l2 - expect).abs() < 1e-9);
    }

    #[test]
    fn bipartite_simple_walk_never_mixes() {
        let g = path(4);
        assert!(mixing_time(&g, WalkKind::Simple, 0.25, 1 << 12).is_none());
        // lambda_star = 1 for bipartite non-lazy
        assert!((lambda_star(&g, WalkKind::Simple) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lazy_walk_mixes() {
        let g = path(4);
        let t = mixing_time(&g, WalkKind::Lazy, 0.25, 1 << 14).unwrap();
        assert!(t >= 1);
        // sanity: TV at the reported time <= eps, one step earlier > eps
        assert!(tv_distance_at(&g, WalkKind::Lazy, t) <= 0.25);
        assert!(tv_distance_at(&g, WalkKind::Lazy, t - 1) > 0.25);
    }

    #[test]
    fn complete_graph_mixes_in_one_step() {
        // After one step, the distribution is uniform over the other n-1
        // vertices: TV = 1/n <= 1/4 for n >= 4.
        let t = mixing_time(&complete(8), WalkKind::Simple, 0.25, 100).unwrap();
        assert_eq!(t, 1);
    }

    #[test]
    fn lazy_cycle_mixing_quadratic_shape() {
        // t_mix of the lazy cycle grows ~ n²; check the ratio at two sizes
        // is around 4 (crude shape test).
        let t8 = mixing_time(&cycle(8), WalkKind::Lazy, 0.25, 1 << 16).unwrap() as f64;
        let t16 = mixing_time(&cycle(16), WalkKind::Lazy, 0.25, 1 << 16).unwrap() as f64;
        let ratio = t16 / t8;
        assert!((2.5..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn spectral_bounds_sandwich_exact_value() {
        for g in [cycle(12), star(8), hypercube(3)] {
            let (lo, hi) = mixing_time_bounds(&g, WalkKind::Lazy, 0.25);
            let t = mixing_time(&g, WalkKind::Lazy, 0.25, 1 << 16).unwrap() as f64;
            assert!(t >= lo - 1.0, "t={t} lo={lo}");
            assert!(t <= hi + 1.0, "t={t} hi={hi}");
        }
    }

    #[test]
    fn expander_gap_constant_hypercube_gap_shrinks() {
        // K_n has gap ~ 1; hypercube lazy gap = 1/k shrinks with dimension.
        let gap_k = spectral_gap(&complete(16), WalkKind::Lazy);
        assert!(gap_k > 0.4);
        let gap_h3 = spectral_gap(&hypercube(3), WalkKind::Lazy);
        let gap_h5 = spectral_gap(&hypercube(5), WalkKind::Lazy);
        assert!(gap_h5 < gap_h3);
        assert!((gap_h3 - 1.0 / 3.0).abs() < 1e-9);
        assert!((gap_h5 - 1.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn backends_agree_on_gap_and_lambda2() {
        for g in [cycle(12), complete(10), hypercube(4)] {
            for kind in [WalkKind::Simple, WalkKind::Lazy] {
                let d = spectral_gap(&g, kind);
                let s = dispersion_solve::spectral_gap_sparse(&g, kind);
                assert!((d - s).abs() < 1e-9, "gap {d} vs {s}");
                let l2d = lambda2(&g, kind);
                let l2s = dispersion_solve::lambda2_sparse(&g, kind);
                assert!((l2d - l2s).abs() < 1e-9, "λ₂ {l2d} vs {l2s}");
            }
        }
    }

    #[test]
    fn tv_monotone_nonincreasing_lazy() {
        let g = star(6);
        let mut prev = f64::INFINITY;
        for t in 0..20 {
            let d = tv_distance_at(&g, WalkKind::Lazy, t);
            assert!(d <= prev + 1e-12);
            prev = d;
        }
    }
}
