//! Symmetric eigensolvers: cyclic Jacobi (full spectrum) and power iteration
//! (dominant eigenpair).
//!
//! The random-walk transition matrix `P = D⁻¹A` of a connected graph is
//! similar to the symmetric matrix `N = D^{-1/2} A D^{-1/2}`; its spectrum
//! gives the spectral gap `1 - λ₂` and the relaxation time used throughout
//! Section 3 and Appendix C of the paper.

use crate::matrix::Matrix;

/// Full eigendecomposition of a symmetric matrix.
// LINT: unused-pub-ok — the return type of the public `jacobi_eigen`
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// `vectors.row(k)` is the eigenvector for `values[k]` (unit norm).
    pub vectors: Matrix,
}

/// Cyclic Jacobi eigenvalue iteration for symmetric matrices.
///
/// Runs sweeps of Givens rotations until the off-diagonal Frobenius mass
/// drops below `tol`, or 100 sweeps. Accuracy is ~1e-12 for the sizes used
/// here (`n ≲ 2000`, though `O(n³)` per sweep makes ≳500 slow in debug
/// builds).
///
/// # Panics
///
/// Panics if `a` is not symmetric to `1e-9`.
pub fn jacobi_eigen(a: &Matrix, tol: f64) -> SymmetricEigen {
    assert!(
        a.is_symmetric(1e-9),
        "jacobi_eigen requires a symmetric matrix"
    );
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    let off = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += m[(i, j)] * m[(i, j)];
            }
        }
        s.sqrt()
    };

    for _sweep in 0..100 {
        if off(&m) <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // apply rotation to rows/cols p,q of m
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // accumulate eigenvectors (rows of v are eigvecs of aᵀ ... we
                // rotate rows so that v.row(k) tracks the k-th eigenvector)
                for k in 0..n {
                    let vpk = v[(p, k)];
                    let vqk = v[(q, k)];
                    v[(p, k)] = c * vpk - s * vqk;
                    v[(q, k)] = s * vpk + c * vqk;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].partial_cmp(&m[(i, i)]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let vectors = Matrix::from_fn(n, n, |k, j| v[(order[k], j)]);
    SymmetricEigen { values, vectors }
}

/// Dominant eigenpair of a symmetric matrix by power iteration with
/// deflation hooks: returns `(eigenvalue, eigenvector)`.
///
/// `orthogonal_to` lets the caller deflate already-found eigenvectors to
/// reach subdominant pairs. The start vector is deterministic.
pub fn power_iteration(
    a: &Matrix,
    orthogonal_to: &[Vec<f64>],
    iters: usize,
    tol: f64,
) -> (f64, Vec<f64>) {
    let n = a.rows();
    // deterministic, non-degenerate start vector
    let mut x: Vec<f64> = (0..n)
        .map(|i| 1.0 + (i as f64 * 0.7368062997).sin())
        .collect();
    orthogonalise(&mut x, orthogonal_to);
    normalise(&mut x);
    let mut lambda = 0.0;
    for _ in 0..iters {
        let mut y = a.matvec(&x);
        orthogonalise(&mut y, orthogonal_to);
        let ny = norm(&y);
        if ny == 0.0 {
            return (0.0, x);
        }
        for v in &mut y {
            *v /= ny;
        }
        let new_lambda = dot(&y, &a.matvec(&y));
        let delta = (new_lambda - lambda).abs();
        x = y;
        lambda = new_lambda;
        if delta < tol {
            break;
        }
    }
    (lambda, x)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn normalise(a: &mut [f64]) {
    let n = norm(a);
    if n > 0.0 {
        for v in a {
            *v /= n;
        }
    }
}

fn orthogonalise(x: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let proj = dot(x, b) / dot(b, b).max(1e-300);
        for (xi, bi) in x.iter_mut().zip(b) {
            *xi -= proj * bi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag2() -> Matrix {
        Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 3.0]])
    }

    #[test]
    fn jacobi_2x2_known() {
        let e = jacobi_eigen(&diag2(), 1e-14);
        assert!((e.values[0] - 4.0).abs() < 1e-10);
        assert!((e.values[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_eigenvectors_satisfy_definition() {
        let a = Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]]);
        let e = jacobi_eigen(&a, 1e-14);
        for k in 0..3 {
            let v = e.vectors.row(k).to_vec();
            let av = a.matvec(&v);
            for i in 0..3 {
                assert!(
                    (av[i] - e.values[k] * v[i]).abs() < 1e-9,
                    "eigenpair {k} violated"
                );
            }
        }
    }

    #[test]
    fn jacobi_path_laplacian_spectrum() {
        // Laplacian of P3: eigenvalues 0, 1, 3
        let a = Matrix::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]);
        let e = jacobi_eigen(&a, 1e-14);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        assert!(e.values[2].abs() < 1e-10);
    }

    #[test]
    fn power_iteration_dominant() {
        let (l, v) = power_iteration(&diag2(), &[], 500, 1e-14);
        assert!((l - 4.0).abs() < 1e-8);
        // eigenvector ∝ (1,1)
        assert!((v[0].abs() - v[1].abs()).abs() < 1e-6);
    }

    #[test]
    fn jacobi_orthonormal_vectors() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 2.0], &[1.0, 5.0, 3.0], &[2.0, 3.0, 6.0]]);
        let e = jacobi_eigen(&a, 1e-14);
        for i in 0..3 {
            for j in 0..3 {
                let d = dot(e.vectors.row(i), e.vectors.row(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-9, "rows {i},{j}: {d}");
            }
        }
    }

    #[test]
    fn trace_preserved() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 2.0], &[1.0, 5.0, 3.0], &[2.0, 3.0, 6.0]]);
        let e = jacobi_eigen(&a, 1e-14);
        let trace = 15.0;
        let sum: f64 = e.values.iter().sum();
        assert!((sum - trace).abs() < 1e-9);
    }
}
