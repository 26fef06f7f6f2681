//! Lanczos iteration for the extreme eigenvalues of sparse symmetric
//! operators, with explicit deflation of known eigenvectors.
//!
//! The walk operator `N = D^{-1/2} A D^{-1/2}` has top eigenvector
//! `φ ∝ D^{1/2}·1` with eigenvalue 1; deflating `φ` turns the extreme
//! Ritz values of the remaining operator into `λ₂` and `λ_n` — exactly the
//! quantities behind the spectral gap `1 − λ*` and the relaxation-time
//! lower bound (Prop. 3.9) — without ever materialising an `n × n` matrix.

use crate::sparse::SparseMatrix;

/// Extreme eigenvalues of a symmetric operator after deflation.
#[derive(Clone, Copy, Debug)]
pub struct SpectrumEdge {
    /// Largest eigenvalue orthogonal to the deflated space.
    pub max: f64,
    /// Smallest eigenvalue orthogonal to the deflated space.
    pub min: f64,
    /// Lanczos steps performed.
    pub steps: usize,
    /// Whether iteration stopped because both extremes went stationary (or
    /// the Krylov space closed), rather than by exhausting the step cap.
    /// A `false` here means the values are best-effort Ritz estimates.
    pub converged: bool,
}

/// Graphs up to this size get full reorthogonalisation (the Krylov basis is
/// stored, `O(n·k)` memory), which keeps small-graph results accurate to
/// ~1e-12 so they can be validated against the dense Jacobi eigensolver.
/// Larger graphs fall back to selective reorthogonalisation (deflation
/// vectors only, `O(n)` memory): extreme Ritz values stay reliable, interior
/// ones may ghost — we only read the extremes.
const FULL_REORTH_LIMIT: usize = 2048;

/// Estimates the extreme eigenvalues of the symmetric matrix `a` restricted
/// to the orthogonal complement of `deflate` (each deflation vector should
/// be unit-norm).
///
/// `max_steps = None` picks `n` for small operators and `1500` beyond
/// `FULL_REORTH_LIMIT` (2048) states; iteration stops early once both extremes are
/// stationary to ~1e-13.
///
/// # Panics
///
/// Panics if `a` is not square, a deflation vector has the wrong length, or
/// the complement of the deflated space is empty (`n ≤ deflate.len()`).
pub fn lanczos_extremes(
    a: &SparseMatrix,
    deflate: &[Vec<f64>],
    max_steps: Option<usize>,
) -> SpectrumEdge {
    let n = a.rows();
    assert_eq!(a.cols(), n, "Lanczos needs a square operator");
    for d in deflate {
        assert_eq!(d.len(), n, "deflation vector length mismatch");
    }
    assert!(n > deflate.len(), "no dimensions left after deflation");
    let full_reorth = n <= FULL_REORTH_LIMIT;
    let cap = max_steps.unwrap_or(if full_reorth { n } else { 1500 });
    let cap = cap.max(2).min(n);

    // deterministic pseudo-random start vector (splitmix64), deflated
    let mut v = {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut v: Vec<f64> = (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        project_out(&mut v, deflate);
        let nv = norm(&v);
        assert!(nv > 0.0, "start vector vanished under deflation");
        scale(&mut v, 1.0 / nv);
        v
    };

    let mut v_prev = vec![0.0; n];
    let mut beta = 0.0f64; // β_j, updated to β_{j+1} at the end of each step
    let mut alphas: Vec<f64> = Vec::with_capacity(cap);
    let mut betas: Vec<f64> = Vec::with_capacity(cap);
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut w = vec![0.0; n];
    let (mut last_max, mut last_min) = (f64::NAN, f64::NAN);

    for step in 0..cap {
        if full_reorth {
            basis.push(v.clone());
        }
        a.matvec_into(&v, &mut w);
        project_out(&mut w, deflate);
        let alpha = dot(&v, &w);
        for i in 0..n {
            w[i] -= alpha * v[i] + beta * v_prev[i];
        }
        if full_reorth {
            // two Gram–Schmidt passes against the whole basis
            for _ in 0..2 {
                for q in &basis {
                    let c = dot(q, &w);
                    for i in 0..n {
                        w[i] -= c * q[i];
                    }
                }
            }
        } else {
            project_out(&mut w, deflate);
        }
        alphas.push(alpha);
        let next_beta = norm(&w);
        // convergence probe: extremes of the current tridiagonal matrix
        let check_now = next_beta <= 1e-14 || step + 1 == cap || (step + 1) % 10 == 0;
        if check_now {
            let (lo, hi) = tridiagonal_extremes(&alphas, &betas);
            let stationary = (hi - last_max).abs() <= 1e-13 * hi.abs().max(1.0)
                && (lo - last_min).abs() <= 1e-13 * lo.abs().max(1.0);
            last_max = hi;
            last_min = lo;
            if next_beta <= 1e-14 || stationary {
                return SpectrumEdge {
                    max: hi,
                    min: lo,
                    steps: step + 1,
                    converged: true,
                };
            }
        }
        betas.push(next_beta);
        beta = next_beta;
        scale(&mut w, 1.0 / next_beta);
        std::mem::swap(&mut v_prev, &mut v);
        std::mem::swap(&mut v, &mut w);
    }
    SpectrumEdge {
        max: last_max,
        min: last_min,
        steps: cap,
        converged: false,
    }
}

/// Extreme eigenvalues of the symmetric tridiagonal matrix with diagonal
/// `alphas` and off-diagonal `betas` (`betas.len() == alphas.len() − 1`),
/// by Sturm-sequence bisection — `O(k)` per probe, so convergence checks
/// stay cheap even after a thousand Lanczos steps.
fn tridiagonal_extremes(alphas: &[f64], betas: &[f64]) -> (f64, f64) {
    let k = alphas.len();
    debug_assert_eq!(betas.len() + 1, k.max(1));
    if k == 1 {
        return (alphas[0], alphas[0]);
    }
    // Gershgorin interval
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..k {
        let r = if i > 0 { betas[i - 1].abs() } else { 0.0 }
            + if i < k - 1 { betas[i].abs() } else { 0.0 };
        lo = lo.min(alphas[i] - r);
        hi = hi.max(alphas[i] + r);
    }
    let min = bisect_kth(alphas, betas, 1, lo, hi);
    let max = bisect_kth(alphas, betas, k, lo, hi);
    (min, max)
}

/// Smallest `x` with at least `target` eigenvalues `≤ x`, to ~1e-14·scale.
fn bisect_kth(alphas: &[f64], betas: &[f64], target: usize, mut lo: f64, mut hi: f64) -> f64 {
    let scale = hi.abs().max(lo.abs()).max(1e-300);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if sturm_count_le(alphas, betas, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo <= 1e-15 * scale {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Number of eigenvalues `≤ x` via the Sturm sequence of leading-principal
/// minors (negative pivots of the shifted LDLᵀ factorisation).
fn sturm_count_le(alphas: &[f64], betas: &[f64], x: f64) -> usize {
    let mut count = 0usize;
    let mut d = 1.0f64;
    for (i, &a) in alphas.iter().enumerate() {
        let off = if i > 0 { betas[i - 1] } else { 0.0 };
        d = a - x - off * off / d;
        if d == 0.0 {
            d = 1e-300;
        }
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

fn project_out(v: &mut [f64], deflate: &[Vec<f64>]) {
    for d in deflate {
        let c = dot(d, v);
        for i in 0..v.len() {
            v[i] -= c * d[i];
        }
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[inline]
fn scale(a: &mut [f64], c: f64) {
    for x in a {
        *x *= c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sturm_counts_diagonal_matrix() {
        let alphas = [1.0, 2.0, 3.0];
        let betas = [0.0, 0.0];
        assert_eq!(sturm_count_le(&alphas, &betas, 0.5), 0);
        assert_eq!(sturm_count_le(&alphas, &betas, 2.5), 2);
        assert_eq!(sturm_count_le(&alphas, &betas, 3.5), 3);
    }

    #[test]
    fn tridiagonal_extremes_of_path_laplacian() {
        // tridiag(-1, 2, -1) of size k: eigenvalues 2 - 2 cos(jπ/(k+1))
        let k = 12;
        let alphas = vec![2.0; k];
        let betas = vec![-1.0; k - 1];
        let (lo, hi) = tridiagonal_extremes(&alphas, &betas);
        let theta = std::f64::consts::PI / (k as f64 + 1.0);
        assert!((lo - (2.0 - 2.0 * theta.cos())).abs() < 1e-12);
        assert!((hi - (2.0 + 2.0 * theta.cos())).abs() < 1e-12);
    }

    #[test]
    fn lanczos_recovers_diagonal_extremes() {
        let n = 30;
        let triplets: Vec<(usize, usize, f64)> =
            (0..n).map(|i| (i, i, i as f64 / (n - 1) as f64)).collect();
        let a = SparseMatrix::from_triplets(n, n, &triplets);
        let edge = lanczos_extremes(&a, &[], None);
        assert!((edge.max - 1.0).abs() < 1e-10, "max {}", edge.max);
        assert!(edge.min.abs() < 1e-10, "min {}", edge.min);
        assert!(edge.converged);
    }

    #[test]
    fn deflation_removes_top_eigenpair() {
        // A = diag(0, 1, 2, 3); deflating e_3 must expose max = 2
        let a = SparseMatrix::from_triplets(
            4,
            4,
            &[(0, 0, 0.0), (1, 1, 1.0), (2, 2, 2.0), (3, 3, 3.0)],
        );
        let mut top = vec![0.0; 4];
        top[3] = 1.0;
        let edge = lanczos_extremes(&a, &[top], None);
        assert!((edge.max - 2.0).abs() < 1e-10, "max {}", edge.max);
        assert!(edge.min.abs() < 1e-10, "min {}", edge.min);
    }
}
