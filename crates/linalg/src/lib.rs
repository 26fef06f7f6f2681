//! # dispersion-linalg
//!
//! Minimal dense linear algebra for the dispersion-time reproduction:
//!
//! * [`Matrix`] — row-major dense `f64` matrix,
//! * [`lu`] — LU factorisation with partial pivoting (solve / inverse /
//!   determinant), used for exact expected hitting times,
//! * [`eigen`] — cyclic Jacobi and power iteration for symmetric matrices,
//!   used for spectral gaps `1 − λ₂`,
//! * [`vector`] — dot-product and TV-distance helpers.
//!
//! Everything is written for the small dense systems arising from graphs
//! with `n ≲ 4000` vertices; no BLAS and no unsafe code.
//!
//! ```
//! use dispersion_linalg::{lu, Matrix};
//! let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
//! let x = lu::solve(&a, &[2.0, 8.0]).unwrap();
//! assert_eq!(x, vec![1.0, 2.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eigen;
pub mod lu;
pub mod matrix;
pub mod vector;

pub use eigen::{jacobi_eigen, power_iteration, SymmetricEigen};
pub use lu::{inverse, solve, Lu, Singular};
pub use matrix::Matrix;
