//! LU decomposition with partial pivoting: linear solves, inverses,
//! determinants.
//!
//! Exact expected hitting times of a random walk solve `(I - Q) h = 1` where
//! `Q` is the transition matrix with the target row/column removed; this
//! module provides that solve.

use crate::matrix::Matrix;

/// An LU factorisation `P A = L U` with partial pivoting.
#[derive(Debug)]
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

/// Error returned when a matrix is singular to working precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
// LINT: unused-pub-ok — the error type of the public `Lu::factor` and `solve`
pub struct Singular;

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for Singular {}

impl Lu {
    /// Factorises a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Singular`] if a pivot below `1e-12 * max|A|` is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Matrix) -> Result<Lu, Singular> {
        assert!(a.is_square(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = a.as_slice().iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let tol = 1e-12 * scale.max(1.0);

        for k in 0..n {
            // pivot search
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= tol {
                return Err(Singular);
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let f = lu[(i, k)] / pivot;
                lu[(i, k)] = f;
                if f != 0.0 {
                    for j in (k + 1)..n {
                        let update = f * lu[(k, j)];
                        lu[(i, j)] -= update;
                    }
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Order of the factored matrix.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n();
        assert_eq!(b.len(), n);
        // apply permutation
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // forward substitution (unit lower triangle)
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s;
        }
        // back substitution
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s / self.lu[(i, i)];
        }
        x
    }

    /// Solves `A X = B` column-by-column.
    fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.n();
        assert_eq!(b.rows(), n);
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            let x = self.solve(&col);
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        out
    }

    /// The inverse matrix.
    pub fn inverse(&self) -> Matrix {
        self.solve_matrix(&Matrix::identity(self.n()))
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.n() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// One-shot solve of `A x = b`.
///
/// # Errors
///
/// Returns [`Singular`] if `a` is singular.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, Singular> {
    Ok(Lu::factor(a)?.solve(b))
}

/// One-shot inverse.
///
/// # Errors
///
/// Returns [`Singular`] if `a` is singular.
pub fn inverse(a: &Matrix) -> Result<Matrix, Singular> {
    Ok(Lu::factor(a)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = [5.0, 10.0];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // zero in the (0,0) position forces a row swap
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(Lu::factor(&a).unwrap_err(), Singular);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0, 2.0], &[3.0, 6.0, 1.0], &[2.0, 5.0, 3.0]]);
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn determinant_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.determinant() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_with_swaps() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn larger_random_system() {
        // deterministic pseudo-random fill
        let n = 40;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 4.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn solve_matrix_matches_columnwise() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = Lu::factor(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = lu.solve_matrix(&b);
        assert!(a.matmul(&x).max_abs_diff(&Matrix::identity(2)) < 1e-12);
    }
}
